// Command perfbench is the repository benchmark. It runs one named
// workload in one process, times it end to end with tracing off, or
// (with -trace 1) runs the separate traced pass that yields the
// per-layer numbers, checks every simulated output it timed against a
// direct sim.RunContext, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.py, which builds it from the checkout's source:
//
//	python3 perfbench/run.py --workload meta-sweep --seed 1 --seconds 25 --trace 0
//
// The simulator model has no real-hardware reference in this
// repository: simulated statistics are outputs to check, not metrics,
// and no error figure is given.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// par bounds every kind of concurrency the benchmark uses: GOMAXPROCS,
// sweep parallelism, pool workers, and clients.
var par = min(2, runtime.NumCPU())

// e2eMetrics and layerMetrics name the metrics BENCHMARK.json lists;
// the final JSON line carries exactly these, for every workload. Every
// other number is printed on its own line above it.
var (
	e2eMetrics = []string{
		"setup_s", "throughput_minstr_s", "peak_rss_mb",
		"sweep_s", "job_p50_ms", "job_tail_ms",
	}
	layerMetrics = []string{
		"workload.ns_per_access", "hierarchy.ns_per_access",
		"hierarchy.llc_events_per_kinstr", "dram.row_hit_ratio",
		"sim.setup_ms_per_run", "sim.ns_per_access",
		"sim.trace_overhead_ratio",
	}
)

// options are the command-line inputs every workload sees.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	workDir  string // scratch space for stores and journals
}

// rssReps is the fixed work peak_rss_mb covers: the first sweeps or
// rounds of the window. The daemon keeps every finished sweep and job,
// and the benchmark keeps every result for the output check, so memory
// grows with each repetition; at the window's end it would grow with
// throughput instead.
const rssReps = 10

// outDir holds spans, result records, and scratch state. It is
// relative to the working directory, the root of the checkout.
var outDir = filepath.Join(".bench_build", "perfbench")

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"meta-sweep":  runMetaSweep,
	"front-sweep": runFrontSweep,
	"service-mix": runServiceMix,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: meta-sweep, front-sweep, or service-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 25, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	runWorkload, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -workload {meta-sweep,front-sweep,service-mix}, -seconds >= 1, -trace {0,1}")
	}
	o.window = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	runtime.GOMAXPROCS(par)

	o.workDir = filepath.Join(outDir, fmt.Sprintf("work-%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.workDir)

	// Flush what earlier processes left to write, so it does not land in
	// this run's set-up time.
	syscall.Sync()
	rep := newReport(o)
	rep.stamp()
	if err := runWorkload(o, rep); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	return rep.finish()
}

// metric is one named value in the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, its operation counts, and its
// output-check verdict, and prints them.
type report struct {
	opt       options
	stampKV   map[string]any
	metrics   map[string]metric
	attempted int
	failed    int
	mismatch  []string
	spans     *spanLog
}

func newReport(o options) *report {
	return &report{opt: o, metrics: make(map[string]metric), spans: newSpanLog()}
}

// stamp prints the machine stamp every result is recorded with, so
// numbers from different machines are never compared.
func (r *report) stamp() {
	r.stampKV = machineStamp(r.opt)
	keys := make([]string, 0, len(r.stampKV))
	for k := range r.stampKV {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("machine %s = %v\n", k, r.stampKV[k])
	}
	fmt.Println("model: unvalidated (no real-hardware reference in this repository); no error figure is given")
}

// e2e records an end-to-end metric; note explains its base.
func (r *report) e2e(name string, v float64, unit, note string) {
	r.metrics[name] = metric{v, unit}
	fmt.Printf("e2e   %-34s %14.6g %-12s %s\n", name, v, unit, note)
}

// layer records a per-layer metric; base gives the count it rests on
// and the end-to-end metric it should move.
func (r *report) layer(name string, v float64, unit, base string) {
	r.metrics[name] = metric{v, unit}
	fmt.Printf("layer %-34s %14.6g %-12s %s\n", name, v, unit, base)
}

// info prints a context line that is not a metric.
func (r *report) info(format string, args ...any) {
	fmt.Printf("info  "+format+"\n", args...)
}

// ops counts operations attempted and failed toward error_rate.
func (r *report) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// mismatchf records a failed output check; each one fails the run and
// counts into error_rate.
func (r *report) mismatchf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mismatch = append(r.mismatch, msg)
	fmt.Printf("check FAIL %s\n", msg)
}

// finish prints error_rate and the final JSON line, and writes the
// spans and a result record under outDir.
func (r *report) finish() error {
	failed := r.failed + len(r.mismatch)
	if r.attempted == 0 {
		return fmt.Errorf("no operations attempted")
	}
	errRate := float64(failed) / float64(r.attempted)
	fmt.Printf("e2e   %-34s %14.6g %-12s %d failed or refused of %d attempted\n",
		"error_rate", errRate, "ratio", failed, r.attempted)
	fmt.Printf("check %d output mismatches\n", len(r.mismatch))

	names := e2eMetrics
	if r.opt.trace {
		names = layerMetrics
	}
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = m
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, r.attempted, failed, out}

	tag := fmt.Sprintf("%s-seed%d-trace%d", r.opt.workload, r.opt.seed, btoi(r.opt.trace))
	record := map[string]any{"machine": r.stampKV, "result": res, "all_metrics": r.metrics, "mismatches": r.mismatch}
	if err := writeJSON(filepath.Join(outDir, "result-"+tag+".json"), record); err != nil {
		return err
	}
	if r.opt.trace {
		path := filepath.Join(outDir, "spans-"+tag+".json")
		if err := writeJSON(path, r.spans.spans); err != nil {
			return err
		}
		r.info("spans %d written to %s", len(r.spans.spans), path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
