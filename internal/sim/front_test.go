package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/hierarchy"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/obs"
	"github.com/maps-sim/mapsim/internal/trace"
	"github.com/maps-sim/mapsim/internal/workload"
)

// memoInstr keeps the all-benchmark twin matrix (16 benchmarks × 2
// orgs × ~20 back configs) fast under -race while still spanning
// several cancellation checkpoints and a warmup boundary.
const memoInstr = 40_000

// backVariants are the back-end configurations the memoization twin
// replays one front through: insecure, secure without a metadata
// cache, every named content policy at two sizes, partial writes, and
// speculation with and without a window.
func backVariants(org memlayout.Organization) map[string]Config {
	contents := []metacache.ContentPolicy{
		metacache.CountersOnly, metacache.CountersHashes, metacache.AllTypes,
		metacache.HashesOnly, metacache.TreeOnly, metacache.CountersTree, metacache.HashesTree,
	}
	v := map[string]Config{
		"insecure":      {},
		"secure-nometa": {Secure: true, Org: org},
		"partial-writes": {Secure: true, Org: org,
			Meta: &metacache.Config{Size: 32 << 10, Ways: 8, PartialWrites: true}},
		"speculation": {Secure: true, Org: org, Speculation: true,
			Meta: &metacache.Config{Size: 64 << 10, Ways: 8}},
		"spec-window": {Secure: true, Org: org, Speculation: true, SpeculationWindow: 100,
			Meta: &metacache.Config{Size: 64 << 10, Ways: 8}},
	}
	for _, c := range contents {
		for _, size := range []int{16 << 10, 128 << 10} {
			v[fmt.Sprintf("%s-%dKB", c, size>>10)] = Config{Secure: true, Org: org,
				Meta: &metacache.Config{Size: size, Ways: 8, Content: c}}
		}
	}
	return v
}

// memoTwin runs front once, replays it through back, and fails the
// test unless the result equals a fused RunContext of the same
// combined config (Timing zeroed).
func memoTwin(t *testing.T, front *Front, frontCfg, back Config) {
	t.Helper()
	cfg := frontCfg
	setBack(&cfg, back)
	want, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("fused: %v", err)
	}
	got, err := RunBack(context.Background(), back, front)
	if err != nil {
		t.Fatalf("back: %v", err)
	}
	want.Timing, got.Timing = PhaseTiming{}, PhaseTiming{}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("memoized result diverges from fused run\nfused: %+v\nmemo:  %+v", want, got)
	}
}

// TestMemoBitIdenticalAllBenchmarks is the memoization contract: for
// every benchmark and both counter organizations, one recorded front
// replayed through each back configuration reproduces RunContext bit
// for bit.
func TestMemoBitIdenticalAllBenchmarks(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			frontCfg := Config{Benchmark: name, Instructions: memoInstr}
			front, err := RunFront(context.Background(), frontCfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, org := range []memlayout.Organization{memlayout.PoisonIvy, memlayout.SGX} {
				for variant, back := range backVariants(org) {
					t.Run(org.String()+"/"+variant, func(t *testing.T) {
						memoTwin(t, front, frontCfg, back)
					})
				}
			}
		})
	}
}

// TestMemoBitIdenticalFrontVariants covers front-end settings the
// all-benchmarks matrix holds fixed: a non-unit CPI, a workload spec,
// custom hit latencies and hierarchy, the generic policy path, and a
// run whose warmup is longer than its measured window.
func TestMemoBitIdenticalFrontVariants(t *testing.T) {
	sp := parseSpecT(t)
	fronts := map[string]Config{
		"base-cpi":  {Benchmark: "milc", Instructions: memoInstr, BaseCPI: 1.5},
		"spec":      {WorkloadSpec: sp, Instructions: memoInstr, Seed: 7},
		"latencies": {Benchmark: "mcf", Instructions: memoInstr, L2HitLatency: 9, L3HitLatency: 31},
		"generic":   {Benchmark: "canneal", Instructions: memoInstr, DisableFastPath: true},
		"long-warm": {Benchmark: "lbm", Instructions: memoInstr / 4, Warmup: memoInstr},
		"small-hier": {Benchmark: "fft", Instructions: memoInstr, Hierarchy: hierarchy.Config{
			L1Size: 16 << 10, L1Ways: 4, L2Size: 128 << 10, L2Ways: 8, L3Size: 512 << 10, L3Ways: 16}},
	}
	for name, frontCfg := range fronts {
		frontCfg := frontCfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			front, err := RunFront(context.Background(), frontCfg)
			if err != nil {
				t.Fatal(err)
			}
			for variant, back := range backVariants(memlayout.PoisonIvy) {
				if frontCfg.DisableFastPath {
					back.DisableFastPath = true
				}
				t.Run(variant, func(t *testing.T) {
					memoTwin(t, front, frontCfg, back)
				})
			}
		})
	}
}

// TestMemoBackIgnoresFrontFields pins RunBack's contract that the
// front alone decides the front-end fields: a back config naming a
// different benchmark and length still reports the front's run.
func TestMemoBackIgnoresFrontFields(t *testing.T) {
	frontCfg := Config{Benchmark: "canneal", Instructions: memoInstr}
	front, err := RunFront(context.Background(), frontCfg)
	if err != nil {
		t.Fatal(err)
	}
	back := Config{Benchmark: "mcf", Instructions: 7, Secure: true,
		Meta: &metacache.Config{Size: 32 << 10, Ways: 8}}
	memoTwin(t, front, frontCfg, back)
	if size := unsafe.Sizeof(event{}); size != 24 {
		t.Errorf("event is %d B; docs/PERFORMANCE.md quotes 24 B", size)
	}
}

// TestMemoTap checks that a back run observes the same metadata
// access stream, warmup included, as the fused run.
func TestMemoTap(t *testing.T) {
	collect := func(dst *[]trace.Access) func(trace.Access) {
		return func(a trace.Access) { *dst = append(*dst, a) }
	}
	var fused, memo []trace.Access
	cfg := Config{Benchmark: "canneal", Instructions: memoInstr, Secure: true,
		Meta: &metacache.Config{Size: 32 << 10, Ways: 8}, Tap: collect(&fused)}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	front, err := RunFront(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tap = collect(&memo)
	if _, err := RunBack(context.Background(), cfg, front); err != nil {
		t.Fatal(err)
	}
	if len(fused) == 0 || !reflect.DeepEqual(fused, memo) {
		t.Fatalf("tap streams differ: fused %d accesses, memo %d", len(fused), len(memo))
	}
}

// TestMemoProgressAndCancel checks that RunFront reports the full
// run to a Progress and that both halves honor cancellation and the
// sim.step fault point.
func TestMemoProgressAndCancel(t *testing.T) {
	prog := &obs.Progress{}
	cfg := Config{Benchmark: "canneal", Instructions: 200_000, Secure: true, Progress: prog}
	front, err := RunFront(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := prog.Snapshot(); s.Total != 220_000 || s.Done < s.Total {
		t.Errorf("progress %d/%d, want the whole 220000-instruction run", s.Done, s.Total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunFront(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("RunFront on a cancelled ctx: %v", err)
	}
	if _, err := RunBack(ctx, cfg, front); !errors.Is(err, context.Canceled) {
		t.Errorf("RunBack on a cancelled ctx: %v", err)
	}

	defer faults.Reset()
	if err := faults.P("sim.step").Arm(faults.Injection{Mode: faults.ModeErr}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFront(context.Background(), cfg); !errors.Is(err, faults.ErrInjected) {
		t.Errorf("RunFront under sim.step: %v", err)
	}
	if _, err := RunBack(context.Background(), cfg, front); !errors.Is(err, faults.ErrInjected) {
		t.Errorf("RunBack under sim.step: %v", err)
	}
}
