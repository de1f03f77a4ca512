package experiments

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/reuse"
	"github.com/maps-sim/mapsim/internal/sim"
)

// testOpt keeps experiment tests quick; the CLI uses the real default.
var testOpt = Options{Instructions: 150_000, Parallelism: 4}

func TestSizeLabel(t *testing.T) {
	cases := map[int]string{64: "64B", 16 << 10: "16KB", 2 << 20: "2MB", 288 << 10: "288KB"}
	for in, want := range cases {
		if got := sizeLabel(in); got != want {
			t.Errorf("sizeLabel(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFig1ShapeAndRender(t *testing.T) {
	r, err := Fig1(testOpt)
	if err != nil {
		t.Fatal(err)
	}
	// Shape check 1: for canneal (metadata-hungry), caching all types
	// must reduce metadata *memory traffic* versus counters-only at
	// the same size — the paper's efficiency argument.
	small := MetaSizes[0]
	allMem := r.MemPKI["canneal"][metacache.AllTypes][small]
	countersMem := r.MemPKI["canneal"][metacache.CountersOnly][small]
	if allMem >= countersMem {
		t.Errorf("canneal @%s: all-types mem/KI %.1f should beat counters-only %.1f", sizeLabel(small), allMem, countersMem)
	}
	// Shape check 2: the libquantum crossover — at some size,
	// admitting hashes alongside counters *raises* miss MPKI above
	// counters-only (hash pollution evicts counters; the paper's
	// "six to ten" observation).
	crossover := false
	for _, s := range r.Sizes {
		if r.MPKI["libquantum"][metacache.CountersHashes][s] > r.MPKI["libquantum"][metacache.CountersOnly][s] {
			crossover = true
			break
		}
	}
	if !crossover {
		t.Error("libquantum: counters+hashes never exceeds counters-only MPKI — crossover missing")
	}
	// Shape check 3: MPKI decreases (weakly) with size for all-types.
	for _, b := range r.Benchmarks {
		prev := -1.0
		for _, s := range r.Sizes {
			v := r.MPKI[b][metacache.AllTypes][s]
			if prev >= 0 && v > prev*1.10 {
				t.Errorf("%s all-types MPKI rises with size: %v -> %v at %s", b, prev, v, sizeLabel(s))
			}
			prev = v
		}
	}
	out := r.Render()
	if !strings.Contains(out, "canneal") || !strings.Contains(out, "counters+hashes") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestFig2ShapeAndRender(t *testing.T) {
	opt := testOpt
	opt.Benchmarks = []string{"canneal", "libquantum", "fft"}
	r, err := Fig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Norm["average"] == nil || r.Norm["canneal"] == nil {
		t.Fatal("series missing")
	}
	// All overheads exceed 1 (secure memory costs something).
	for _, llc := range r.LLCs {
		for _, m := range r.Metas {
			if v := r.Norm["average"][llc][m]; v <= 1.0 {
				t.Errorf("average overhead at %s/%s = %v, want > 1", sizeLabel(llc), sizeLabel(m), v)
			}
		}
	}
	// Bigger LLC helps the average at fixed metadata size.
	small := r.Norm["average"][512<<10][64<<10]
	big := r.Norm["average"][4<<20][64<<10]
	if big >= small {
		t.Errorf("4MB LLC (%.2f) should beat 512KB (%.2f) on average", big, small)
	}
	// The paper's canneal flip: at a ~1MB budget, canneal prefers
	// 512KB LLC + 512KB metadata cache over 1MB LLC + 16KB.
	canBig := r.Norm["canneal"][1<<20][16<<10]
	canSplit := r.Norm["canneal"][512<<10][512<<10]
	if canSplit >= canBig {
		t.Errorf("canneal: 512K+512K (%.2f) should beat 1MB+16KB (%.2f)", canSplit, canBig)
	}
	if !strings.Contains(r.Render(), "LLC \\ meta") {
		t.Error("render incomplete")
	}
}

func TestFig2AverageBudgetTradeoff(t *testing.T) {
	// The common-case claim needs the full (balanced) default suite;
	// run at moderate scale.
	if testing.Short() {
		t.Skip("full-suite fig2 in -short mode")
	}
	opt := Options{Instructions: 400_000}
	r, err := Fig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	avgBig := r.Norm["average"][1<<20][16<<10]
	avgSplit := r.Norm["average"][512<<10][512<<10]
	if avgBig >= avgSplit {
		t.Errorf("average: 1MB+16KB (%.2f) should beat 512K+512K (%.2f)", avgBig, avgSplit)
	}
}

func TestFig3ShapeAndRender(t *testing.T) {
	opt := testOpt
	opt.Benchmarks = []string{"libquantum", "canneal"}
	r, err := Fig3(opt)
	if err != nil {
		t.Fatal(err)
	}
	thIdx := func(want uint64) int {
		for i, th := range r.Thresholds {
			if th == want {
				return i
			}
		}
		t.Fatalf("threshold %d missing", want)
		return -1
	}
	i4k := thIdx(4 << 10)
	// Tree nodes have the shortest reuse distances: ~90% under 4KB
	// for most benchmarks (libquantum here).
	lq := r.CDF["libquantum"]
	if lq[memlayout.KindTree][i4k] < 0.7 {
		t.Errorf("libquantum tree CDF@4KB = %v, want high", lq[memlayout.KindTree][i4k])
	}
	// libquantum counters are tight (paper: >90% under 4KB).
	if lq[memlayout.KindCounter][i4k] < 0.5 {
		t.Errorf("libquantum counter CDF@4KB = %v, want high", lq[memlayout.KindCounter][i4k])
	}
	// canneal counters have long reuse: far less mass below 4KB than
	// libquantum's.
	cn := r.CDF["canneal"]
	if cn[memlayout.KindCounter][i4k] >= lq[memlayout.KindCounter][i4k] {
		t.Errorf("canneal counter CDF@4KB (%v) should trail libquantum (%v)",
			cn[memlayout.KindCounter][i4k], lq[memlayout.KindCounter][i4k])
	}
	// Tree <= counter is the coverage-ordering sanity check: more
	// data per block means shorter distances (CDF higher).
	if lq[memlayout.KindTree][i4k] < lq[memlayout.KindHash][i4k] {
		t.Errorf("tree CDF (%v) should dominate hash CDF (%v)",
			lq[memlayout.KindTree][i4k], lq[memlayout.KindHash][i4k])
	}
	if !strings.Contains(r.Render(), "288KB*") {
		t.Error("working-set marker missing from render")
	}
}

func TestFig4ShapeAndRender(t *testing.T) {
	opt := testOpt
	opt.Benchmarks = []string{"libquantum", "fft", "canneal"}
	r, err := Fig4(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range r.Benchmarks {
		c := r.Classes[b]
		sum := c[0] + c[1] + c[2] + c[3]
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s classes sum to %v", b, sum)
		}
	}
	// Bimodality: libquantum's extremes dominate (paper: all but
	// canneal/cactusADM have >=50% in the smallest class and most of
	// the rest in the largest).
	if r.Bimodality["libquantum"] < 0.8 {
		t.Errorf("libquantum bimodality = %v", r.Bimodality["libquantum"])
	}
	if !strings.Contains(r.Render(), reuse.ClassLabels[0]) {
		t.Error("render incomplete")
	}
}

func TestFig5ShapeAndRender(t *testing.T) {
	// Write-after-write hash traffic needs dirty LLC evictions, which
	// only start once the 2MB LLC fills; use a longer run.
	opt := testOpt
	opt.Instructions = 1_500_000
	r, err := Fig5(opt)
	if err != nil {
		t.Fatal(err)
	}
	// fft (20% writes) must exhibit write-after-write hash traffic.
	if r.Counts["fft"][memlayout.KindHash][reuse.WtoW] == 0 {
		t.Error("fft has no write-after-write hash accesses")
	}
	out := r.Render()
	if !strings.Contains(out, "write-after-write") || !strings.Contains(out, "leslie3d") {
		t.Error("render incomplete")
	}
}

func TestFig6ShapeAndRender(t *testing.T) {
	opt := testOpt
	opt.Benchmarks = []string{"libquantum", "fft"}
	r, err := Fig6(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range r.Benchmarks {
		for _, p := range r.Policies {
			if r.MPKI[b][p] <= 0 {
				t.Errorf("%s/%s MPKI = %v", b, p, r.MPKI[b][p])
			}
		}
		if r.IterMINRounds[b] < 1 || r.IterMINRounds[b] > iterMINCap {
			t.Errorf("%s iterMIN rounds = %d", b, r.IterMINRounds[b])
		}
	}
	out := r.Render()
	if !strings.Contains(out, "itermin") || !strings.Contains(out, "plru") {
		t.Error("render incomplete")
	}
}

func TestFig7ShapeAndRender(t *testing.T) {
	opt := testOpt
	opt.Benchmarks = []string{"libquantum", "canneal"}
	r, err := Fig7(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range r.Benchmarks {
		for _, s := range Fig7Schemes {
			if r.Overhead[b][s] <= 1.0 {
				t.Errorf("%s/%s overhead = %v, want > 1", b, s, r.Overhead[b][s])
			}
		}
		// Best static can't be worse than the suite-average static by
		// construction.
		if r.Overhead[b]["best-static"] > r.Overhead[b]["avg-static"]+1e-9 {
			t.Errorf("%s best-static (%v) worse than avg-static (%v)",
				b, r.Overhead[b]["best-static"], r.Overhead[b]["avg-static"])
		}
		if r.BestSplit[b] < 1 || r.BestSplit[b] > Fig7Ways-1 {
			t.Errorf("%s best split = %d", b, r.BestSplit[b])
		}
	}
	if r.AvgSplit < 1 || r.AvgSplit > Fig7Ways-1 {
		t.Errorf("avg split = %d", r.AvgSplit)
	}
	if !strings.Contains(r.Render(), "best split") {
		t.Error("render incomplete")
	}
}

func TestTables(t *testing.T) {
	t1 := Table1()
	if !strings.Contains(t1, "3GHz") || !strings.Contains(t1, "2MB 8-way") {
		t.Errorf("Table I incomplete:\n%s", t1)
	}
	t2 := Table2()
	out := t2.Render()
	for _, want := range []string{"4KB", "512B", "32KB", "Counters", "Hashes"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q:\n%s", want, out)
		}
	}
}

// runTasks is the fail-fast primitive every experiment fan-out now
// shares (the hand-rolled semaphores in fig3/fig6/fig7 lacked both
// guarantees): the first error cancels the shared context, tasks not
// yet started never start, and the root cause is returned unmasked.
func TestRunTasksFailFast(t *testing.T) {
	var started atomic.Int32
	boom := errors.New("boom")
	err := runTasks(context.Background(), 64, 1, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the root cause", err)
	}
	// Parallelism 1 serializes the tasks, so the failure at i=0 must
	// stop the fan-out long before all 64 run.
	if n := started.Load(); n >= 64 {
		t.Fatalf("all %d tasks started despite an early failure", n)
	}
}

func TestRunTasksPropagatesCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := runTasks(ctx, 8, 4, func(ctx context.Context, i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// A failing simulation inside a fan-out must surface its own error
// (here: a 100-byte metadata cache that cannot be built), tagged with
// the benchmark, not a cancellation victim's context error.
func TestRunAllPropagatesRootCause(t *testing.T) {
	jobList := []job{
		{cfg: sim.Config{Instructions: 10_000, Benchmark: "fft", Secure: true,
			Meta: &metacache.Config{Size: 100, Ways: 8}}, out: new(*sim.Result)},
		{cfg: sim.Config{Instructions: 10_000, Benchmark: "libquantum", Secure: true,
			Meta: &metacache.Config{Size: 64 << 10, Ways: 8}}, out: new(*sim.Result)},
	}
	err := runAll(jobList, 2)
	if err == nil || !strings.Contains(err.Error(), "fft") {
		t.Fatalf("runAll error %v does not carry the failing benchmark", err)
	}
}
