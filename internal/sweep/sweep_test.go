package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/maps-sim/mapsim/internal/cache/policy"
	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/sim"
)

const testInstructions = 20_000

// fig1Spec is the miniature Figure 1 grid the tests sweep: two
// benchmarks × two metadata sizes × two content policies, secure.
func fig1Spec() Spec {
	return Spec{
		Base: sim.Config{
			Instructions: testInstructions,
			Secure:       true,
			Speculation:  true,
		},
		Axes: Axes{
			Benchmarks: []string{"canneal", "libquantum"},
			Meta:       IntAxis{Points: []int{16 << 10, 64 << 10}},
			Contents:   []string{"counters", "all"},
		},
	}
}

func TestExpandDeterministic(t *testing.T) {
	spec := fig1Spec()
	a, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 8 {
		t.Fatalf("got %d points, want 8", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two Expand calls disagree")
	}
	// Grid order: benchmark outermost, then meta, then content.
	want := []struct {
		bench   string
		meta    int
		content string
	}{
		{"canneal", 16 << 10, "counters"},
		{"canneal", 16 << 10, "all"},
		{"canneal", 64 << 10, "counters"},
		{"canneal", 64 << 10, "all"},
		{"libquantum", 16 << 10, "counters"},
		{"libquantum", 16 << 10, "all"},
		{"libquantum", 64 << 10, "counters"},
		{"libquantum", 64 << 10, "all"},
	}
	for i, w := range want {
		p := a[i]
		if p.Index != i || p.Benchmark != w.bench || p.MetaBytes != w.meta || p.Content != w.content {
			t.Errorf("point %d: got {%d %s %d %s}, want {%d %s %d %s}",
				i, p.Index, p.Benchmark, p.MetaBytes, p.Content, i, w.bench, w.meta, w.content)
		}
		if p.Config.Benchmark != w.bench || p.Config.Meta == nil || p.Config.Meta.Size != w.meta {
			t.Errorf("point %d: config not materialized from coordinates", i)
		}
	}
}

func TestIntAxisExpand(t *testing.T) {
	pts, err := IntAxis{Min: 16 << 10, Max: 2 << 20}.expand()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20}
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("doubling range: got %v, want %v", pts, want)
	}
	pts, err = IntAxis{Min: 1 << 10, Max: 64 << 10, Factor: 4}.expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pts, []int{1 << 10, 4 << 10, 16 << 10, 64 << 10}) {
		t.Fatalf("factor-4 range: got %v", pts)
	}
	for name, axis := range map[string]IntAxis{
		"points+range":   {Points: []int{1024}, Min: 1024, Max: 2048},
		"negative point": {Points: []int{-1}},
		"inverted range": {Min: 2048, Max: 1024},
		"factor 1":       {Min: 1024, Max: 2048, Factor: 1},
	} {
		if _, err := axis.expand(); err == nil {
			t.Errorf("%s: expand accepted invalid axis", name)
		}
	}
}

func TestExpandRejects(t *testing.T) {
	base := sim.Config{Instructions: testInstructions, Secure: true}
	cases := map[string]Spec{
		"no benchmark":     {Base: base},
		"unknown bench":    {Base: base, Axes: Axes{Benchmarks: []string{"nope"}}},
		"content w/o meta": {Base: base, Axes: Axes{Benchmarks: []string{"canneal"}, Contents: []string{"all"}}},
		"policy w/o meta":  {Base: base, Axes: Axes{Benchmarks: []string{"canneal"}, Policies: []string{"lru"}}},
		"unknown policy": {Base: base, Axes: Axes{Benchmarks: []string{"canneal"},
			Meta: IntAxis{Points: []int{64 << 10}}, Policies: []string{"mru"}}},
		"bad partition": {Base: base, Axes: Axes{Benchmarks: []string{"canneal"},
			Meta: IntAxis{Points: []int{64 << 10}}, Partitions: []string{"static:0"}}},
		"bad content": {Base: base, Axes: Axes{Benchmarks: []string{"canneal"},
			Meta: IntAxis{Points: []int{64 << 10}}, Contents: []string{"everything"}}},
		"zero llc": {Base: base, Axes: Axes{Benchmarks: []string{"canneal"},
			LLC: IntAxis{Points: []int{0}}}},
		"stateful base": {Base: sim.Config{Instructions: testInstructions, Benchmark: "canneal",
			Meta: &metacache.Config{Size: 64 << 10, Ways: 8, Policy: policy.NewLRU()}}},
	}
	for name, spec := range cases {
		if _, err := spec.Expand(); err == nil {
			t.Errorf("%s: Expand accepted invalid spec", name)
		}
	}
}

func TestEngineFailFast(t *testing.T) {
	pool := jobs.New(2, 8)
	defer pool.Shutdown(context.Background())

	// A 100-byte metadata cache fails construction inside the
	// simulator (not divisible into 8-way 64B sets), deterministically.
	spec := fig1Spec()
	spec.Axes.Meta = IntAxis{Points: []int{16 << 10, 100}}
	eng := &Engine{Pool: pool}
	_, err := eng.Run(context.Background(), spec)
	if err == nil {
		t.Fatal("sweep with an unbuildable point succeeded")
	}
	if !strings.Contains(err.Error(), "sweep: point") {
		t.Fatalf("error %q does not name the failing point", err)
	}
	if strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("cancellation victim masked the root cause: %v", err)
	}
}

func TestEngineCancelMidSweep(t *testing.T) {
	pool := jobs.New(2, 8)
	defer pool.Shutdown(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := &Engine{
		Pool:    pool,
		OnPoint: func(PointResult) { cancel() }, // cancel after the first completion
	}
	_, err := eng.Run(ctx, fig1Spec())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestSweepMatchesDirectRun checks the acceptance criterion behind the
// fig1 refactor: a sweep-produced point is byte-identical (host timing
// zeroed) to running its materialized config directly.
func TestSweepMatchesDirectRun(t *testing.T) {
	spec := fig1Spec()
	res, err := Run(context.Background(), spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 5} { // one point per benchmark
		direct, err := sim.Run(points[i].Config)
		if err != nil {
			t.Fatal(err)
		}
		a, b := *res.Points[i].Result, *direct
		a.Timing, b.Timing = sim.PhaseTiming{}, sim.PhaseTiming{}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Errorf("point %d (%s): sweep result differs from direct run\nsweep:  %s\ndirect: %s",
				i, points[i], aj, bj)
		}
	}
}

func TestResultRenderAndPivot(t *testing.T) {
	res, err := Run(context.Background(), fig1Spec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"sweep: 8 points", "meta_mpki geomeans", "per-axis geomeans", "libquantum"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
	if _, err := res.Pivot(AxisBenchmark, AxisMeta, "ipc"); err != nil {
		t.Errorf("Pivot(benchmark, meta, ipc): %v", err)
	}
	if _, err := res.Pivot(AxisBenchmark, AxisMeta, "bogus"); err == nil {
		t.Error("Pivot accepted an unknown metric")
	}
	if len(res.Geomeans) == 0 {
		t.Error("no per-axis geomeans aggregated")
	}
}

func TestPolicyPartitionConstructors(t *testing.T) {
	for _, name := range PolicyNames() {
		if _, err := NewPolicy(name); err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
		}
	}
	if p, err := NewPolicy(""); err != nil || p != nil {
		t.Errorf("NewPolicy(\"\") = %v, %v; want nil, nil", p, err)
	}
	for _, name := range []string{"none", "static:2", "dynamic", ""} {
		if _, err := NewPartition(name); err != nil {
			t.Errorf("NewPartition(%q): %v", name, err)
		}
	}
	for _, name := range []string{"static:x", "static:-1", "banana"} {
		if _, err := NewPartition(name); err == nil {
			t.Errorf("NewPartition(%q) accepted", name)
		}
	}
}
