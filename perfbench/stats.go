package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machineStamp describes where and on what a result was measured.
func machineStamp(o options) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit("."),
		"seed":       o.seed,
		"workload":   o.workload,
		"seconds":    o.window.Seconds(),
		"trace":      o.trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD without running git; a checkout exported
// without .git reports "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// median returns the middle value (mean of the two middle ones for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that still has at least ten
// samples above it, and that percentile. Below eleven samples there
// is no such percentile; it returns the maximum and 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 11 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}

// quantile returns the sample at the q-quantile of xs by nearest rank;
// 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

// tailBlocks is how many consecutive blocks service-mix's job_tail_ms
// cuts a run's jobs into.
const tailBlocks = 5

// blockTail cuts xs, in the order they were taken, into tailBlocks
// consecutive blocks and returns the median of the blocks' tails and
// of their percentiles. A burst of interference from the shared host
// raises the tail of the block it falls in, not the median.
func blockTail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < tailBlocks {
		return tail(xs)
	}
	var vs, ps []float64
	for b := 0; b < tailBlocks; b++ {
		v, p := tail(xs[b*n/tailBlocks : (b+1)*n/tailBlocks])
		vs = append(vs, v)
		ps = append(ps, p)
	}
	return median(vs), median(ps)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// hostClock samples the process's CPU time and the machine's steal
// time, so a run can state how much of its wall time the host took.
type hostClock struct {
	cpu   time.Duration
	steal time.Duration
}

func readHostClock() hostClock {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	h := hostClock{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
		if len(f) > 8 {
			ticks, _ := strconv.ParseInt(f[8], 10, 64)
			h.steal = time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
		}
	}
	return h
}
