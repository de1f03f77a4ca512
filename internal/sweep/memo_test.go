package sweep

import (
	"context"
	"errors"
	"log/slog"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/sim"
)

// metaGridSpec is the Fig. 1 meta-sweep grid: three benchmarks ×
// three metadata sizes × two content policies, secure — 18 points
// over 3 shared fronts.
func metaGridSpec(instructions uint64) Spec {
	return Spec{
		Base: sim.Config{Secure: true, Instructions: instructions, Seed: 3},
		Axes: Axes{
			Benchmarks: []string{"canneal", "libquantum", "mcf"},
			Meta:       IntAxis{Points: []int{16 << 10, 64 << 10, 256 << 10}},
			Contents:   []string{"counters", "all"},
		},
	}
}

// TestMemoMetaGridMatchesDirectRuns is the sweep-level memoization
// contract: the meta grid simulates one front per benchmark, and every
// point equals a direct RunContext of its instantiated config.
func TestMemoMetaGridMatchesDirectRuns(t *testing.T) {
	spec := metaGridSpec(testInstructions)
	res, err := Run(context.Background(), spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 18 || res.Fronts != 3 || res.Deduped != 0 {
		t.Fatalf("got %d points, %d fronts, %d deduped; want 18, 3, 0", res.Total, res.Fronts, res.Deduped)
	}
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		cfg, err := Instantiate(p)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sim.RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := *res.Points[i].Result
		got.Timing, direct.Timing = sim.PhaseTiming{}, sim.PhaseTiming{}
		if !reflect.DeepEqual(&got, direct) {
			t.Errorf("point %d (%s): memoized result differs from direct run", i, p)
		}
	}
	if !strings.HasPrefix(res.Render(), "sweep: 18 points (0 deduped, 3 fronts) in ") {
		t.Errorf("summary line: %q", strings.SplitN(res.Render(), "\n", 2)[0])
	}
}

// TestMemoGrouping pins which axes share fronts: back-end axes
// (metadata size, content, policy, partition, partial writes, secure
// on/off) group; front-end axes (benchmark, LLC) split.
func TestMemoGrouping(t *testing.T) {
	base := sim.Config{Secure: true, Instructions: testInstructions}
	cases := map[string]struct {
		axes   Axes
		groups []int // group sizes in order
	}{
		"meta x content": {Axes{Benchmarks: []string{"canneal", "mcf"},
			Meta: IntAxis{Points: []int{16 << 10, 64 << 10}}, Contents: []string{"counters", "all"}}, []int{4, 4}},
		"policy x partition": {Axes{Benchmarks: []string{"canneal"}, Meta: IntAxis{Points: []int{64 << 10}},
			Policies: []string{"lru", "plru"}, Partitions: []string{"none", "static:2"}}, []int{4}},
		"secure x partial": {Axes{Benchmarks: []string{"fft"}, Secure: []bool{false, true},
			Meta: IntAxis{Points: []int{32 << 10}}, PartialWrites: []bool{false, true}}, []int{4}},
		"llc": {Axes{Benchmarks: []string{"canneal", "mcf"},
			LLC: IntAxis{Points: []int{1 << 20, 2 << 20}}}, []int{1, 1, 1, 1}},
		"llc x meta": {Axes{Benchmarks: []string{"canneal"}, LLC: IntAxis{Points: []int{1 << 20, 2 << 20}},
			Meta: IntAxis{Points: []int{16 << 10, 64 << 10}}}, []int{2, 2}},
	}
	for name, tc := range cases {
		points, err := Spec{Base: base, Axes: tc.axes}.Expand()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tasks := make([]task, len(points))
		for i, p := range points {
			tasks[i] = task{point: p}
		}
		var sizes []int
		next := 0
		for _, g := range groupByFront(tasks) {
			sizes = append(sizes, len(g))
			for _, tk := range g[1:] {
				if tk.point.Index <= g[0].point.Index {
					t.Errorf("%s: group members out of grid order", name)
				}
			}
			if g[0].point.Index < next {
				t.Errorf("%s: groups out of first-member order", name)
			}
			next = g[0].point.Index
		}
		if !reflect.DeepEqual(sizes, tc.groups) {
			t.Errorf("%s: group sizes %v, want %v", name, sizes, tc.groups)
		}
	}
}

// TestMemoFrontCount checks Fronts for fused points: an all-singleton
// sweep counts one front per point.
func TestMemoFrontCount(t *testing.T) {
	pool := jobs.New(2, 8)
	defer pool.Shutdown(context.Background())
	eng := &Engine{Pool: pool}
	llc := Spec{Base: sim.Config{Instructions: testInstructions}, Axes: Axes{
		Benchmarks: []string{"canneal", "mcf"}, LLC: IntAxis{Points: []int{1 << 20, 2 << 20}}}}
	res, err := eng.Run(context.Background(), llc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fronts != 4 {
		t.Errorf("LLC sweep: %d fronts, want 4 (one per point)", res.Fronts)
	}
}

// waitGoroutines waits for the goroutine count to fall back to base,
// failing the test if it does not within a few seconds.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// injectedStep is how an injected sim.step error reads once the pool
// has flattened it into a job failure.
const injectedStep = "injected error at sim.step"

// faultInstructions spans several sim.step checkpoints (every 64Ki
// instructions) in both the front and the back.
const faultInstructions = 300_000

// oneGroupSpec is a single benchmark's meta × content grid: one
// shared front, four backs.
func oneGroupSpec() Spec {
	return Spec{
		Base: sim.Config{Secure: true, Instructions: faultInstructions},
		Axes: Axes{
			Benchmarks: []string{"canneal"},
			Meta:       IntAxis{Points: []int{16 << 10, 64 << 10}},
			Contents:   []string{"counters", "all"},
		},
	}
}

// TestMemoFrontFaultFailsFast arms sim.step before the sweep, so the
// group's front fails: the sweep returns that error alone and none of
// the group's backs is ever submitted.
func TestMemoFrontFaultFailsFast(t *testing.T) {
	defer faults.Reset()
	pool := jobs.New(2, 8)
	defer pool.Shutdown(context.Background())
	var delivered atomic.Int32
	eng := &Engine{Pool: pool, OnPoint: func(PointResult) { delivered.Add(1) }}
	if err := faults.P("sim.step").Arm(faults.Injection{Mode: faults.ModeErr}); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Run(context.Background(), oneGroupSpec())
	if err == nil || !strings.Contains(err.Error(), injectedStep) {
		t.Fatalf("got %v, want the injected sim.step error", err)
	}
	if !strings.Contains(err.Error(), "front") || errors.Is(err, context.Canceled) {
		t.Errorf("error %q should name the failed front alone", err)
	}
	if n := pool.Stats().Submitted; n != 1 {
		t.Errorf("pool saw %d jobs, want only the front (backs must never start)", n)
	}
	if n := delivered.Load(); n != 0 {
		t.Errorf("%d points delivered after the front failed", n)
	}
}

// TestMemoBackFaultFailsFast arms sim.step once the first back job
// starts (the front has finished: one worker runs jobs in order), so
// only backs fail. The sweep fails with that error, and no goroutine
// outlives it.
func TestMemoBackFaultFailsFast(t *testing.T) {
	defer faults.Reset()
	base := runtime.NumGoroutine()
	pool := jobs.New(1, 8, jobs.WithLogger(slog.New(&armOnSecondStart{})))
	spec := oneGroupSpec()
	spec.Axes.Benchmarks = []string{"canneal", "mcf"}
	eng := &Engine{Pool: pool}
	_, err := eng.Run(context.Background(), spec)
	if err == nil || !strings.Contains(err.Error(), injectedStep) {
		t.Fatalf("got %v, want the injected sim.step error", err)
	}
	if strings.Contains(err.Error(), "front") {
		t.Errorf("error %q blames a front; the fault was armed in a back", err)
	}
	if s := pool.Stats(); s.Failed != 1 {
		t.Errorf("%d jobs failed, want exactly the first back", s.Failed)
	}
	pool.Shutdown(context.Background())
	waitGoroutines(t, base)
}

// armOnSecondStart is a log handler that arms sim.step when the pool
// logs its second "job started" event, just before that job runs.
type armOnSecondStart struct{ started atomic.Int32 }

func (h *armOnSecondStart) Enabled(context.Context, slog.Level) bool { return true }

func (h *armOnSecondStart) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "job started" && h.started.Add(1) == 2 {
		return faults.P("sim.step").Arm(faults.Injection{Mode: faults.ModeErr})
	}
	return nil
}

func (h *armOnSecondStart) WithAttrs([]slog.Attr) slog.Handler { return h }

func (h *armOnSecondStart) WithGroup(string) slog.Handler { return h }

// TestMemoCancelMidSweep cancels the caller's context after the first
// memoized point completes: the sweep returns the context error, and
// no goroutine outlives it.
func TestMemoCancelMidSweep(t *testing.T) {
	base := runtime.NumGoroutine()
	pool := jobs.New(2, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	eng := &Engine{Pool: pool, OnPoint: func(PointResult) { once.Do(cancel) }}
	_, err := eng.Run(ctx, metaGridSpec(faultInstructions))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	pool.Shutdown(context.Background())
	waitGoroutines(t, base)
}
