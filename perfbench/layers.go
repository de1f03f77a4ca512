package main

import (
	"context"
	"fmt"
	"time"
	_ "unsafe" // for go:linkname

	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/dram"
	"github.com/maps-sim/mapsim/internal/hierarchy"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/secmem/engine"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/workload"
)

// nanotime is the runtime's monotonic clock: one vDSO read, half the
// cost of time.Now, which matters at two reads per simulated access.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// counters are the simulated integer outputs of one run: what the
// output check and the traced-loop equivalence check compare.
type counters struct {
	Instructions      uint64
	Cycles            uint64
	Hier              [3]cache.Stats
	Meta              [4]kindCount // indexed by memlayout.Kind
	Levels            [16]kindCount
	Mem               engine.MemTraffic
	DRAM              dramCount
	PageReencryptions uint64
}

type kindCount struct{ Accesses, Hits, Misses, Bypassed uint64 }

type dramCount struct{ Reads, Writes, RowHits, RowMisses, BusyCycles uint64 }

func dramCountOf(s dram.Stats) dramCount {
	return dramCount{s.Reads, s.Writes, s.RowHits, s.RowMisses, s.BusyCycles}
}

func countersOf(r *sim.Result) counters {
	c := counters{
		Instructions:      r.Instructions,
		Cycles:            r.Cycles,
		Hier:              r.Hier,
		Mem:               r.Mem,
		DRAM:              dramCountOf(r.DRAM),
		PageReencryptions: r.PageReencryptions,
	}
	for k, v := range r.Meta {
		c.Meta[k&3] = kindCount{v.Accesses, v.Hits, v.Misses, v.Bypassed}
	}
	for i, v := range r.TreeLevels {
		if i < len(c.Levels) {
			c.Levels[i] = kindCount{v.Accesses, v.Hits, v.Misses, v.Bypassed}
		}
	}
	return c
}

// sameOutput reports whether two runs' counters are identical,
// describing the first difference when they are not.
func sameOutput(w, g counters) (bool, string) {
	if w == g {
		return true, ""
	}
	switch {
	case w.Instructions != g.Instructions || w.Cycles != g.Cycles:
		return false, fmt.Sprintf("instructions/cycles %d/%d != %d/%d", g.Instructions, g.Cycles, w.Instructions, w.Cycles)
	case w.Hier != g.Hier:
		return false, fmt.Sprintf("hierarchy %+v != %+v", g.Hier, w.Hier)
	case w.Meta != g.Meta || w.Levels != g.Levels:
		return false, fmt.Sprintf("metadata cache %+v/%+v != %+v/%+v", g.Meta, g.Levels, w.Meta, w.Levels)
	case w.Mem != g.Mem:
		return false, fmt.Sprintf("memory traffic %+v != %+v", g.Mem, w.Mem)
	case w.DRAM != g.DRAM:
		return false, fmt.Sprintf("dram %+v != %+v", g.DRAM, w.DRAM)
	}
	return false, fmt.Sprintf("page re-encryptions %d != %d", g.PageReencryptions, w.PageReencryptions)
}

// layerTimes accumulates the traced loop's per-layer busy time and
// counts over many runs. Busy times are raw clock differences; report
// subtracts the clock's own cost per interval.
type layerTimes struct {
	runs      int
	setupNs   int64 // hierarchy/dram/memlayout/metacache/engine constructors
	genNs     int64 // workload Generator.Next
	hierNs    int64 // Hierarchy.Access
	engNs     int64 // Engine.Read/Writeback (secure runs; includes metacache and dram)
	dramNs    int64 // Memory.Access (insecure runs)
	accesses  uint64
	instrs    uint64 // warmup + measured
	engCalls  uint64 // engine intervals (accesses with back-end work, secure)
	dramCalls uint64 // dram intervals (insecure)
	engEvents uint64 // LLC misses + writebacks sent to the engine
	llcEvents uint64 // LLC misses + writebacks, all runs

	// Measured-window simulated counts.
	measEngEvent uint64
	metaAccesses uint64
	metaHits     uint64
	rowHits      uint64
	dramAccesses uint64

	tracedNs int64 // traced loop wall, setup included
	refNs    int64 // untraced RunContext wall for the same runs
	refLoop  int64 // untraced RunContext warmup+measure time
}

// phaseTimes is one step() call's share of layerTimes.
type phaseTimes struct {
	gen, hier, back     int64
	accesses, backCalls uint64
	events              uint64
	start, end          time.Time
}

// tracedRun simulates cfg by composing the layers' public calls in
// sim.RunContext's order, timing each layer, and returns the run's
// counters. It must reproduce RunContext's counters exactly; the
// caller checks that it does.
func tracedRun(cfg sim.Config, lt *layerTimes, spans *spanLog, parent int) (counters, error) {
	runStart := time.Now()
	// Canonical applies exactly the defaults RunContext fills in.
	c, err := cfg.Canonical()
	if err != nil {
		return counters{}, err
	}
	gen, err := workload.New(c.Benchmark)
	if err != nil {
		return counters{}, err
	}
	gen.Reset(c.Seed)

	setupStart := time.Now()
	t0 := nanotime()
	hier, err := hierarchy.New(c.Hierarchy)
	if err != nil {
		return counters{}, err
	}
	mem, err := dram.New(c.DRAM)
	if err != nil {
		return counters{}, err
	}
	var eng *engine.Engine
	if c.Secure {
		footprint := (gen.Footprint() + memlayout.PageSize - 1) &^ (memlayout.PageSize - 1)
		layout, err := memlayout.New(c.Org, footprint)
		if err != nil {
			return counters{}, err
		}
		var meta *metacache.MetaCache
		if c.Meta != nil {
			if meta, err = metacache.New(*c.Meta); err != nil {
				return counters{}, err
			}
		}
		eng, err = engine.New(engine.Config{
			Layout:            layout,
			Meta:              meta,
			DRAM:              mem,
			Speculation:       c.Speculation,
			SpeculationWindow: c.SpeculationWindow,
		})
		if err != nil {
			return counters{}, err
		}
	}
	lt.setupNs += nanotime() - t0
	setupEnd := time.Now()

	var (
		cycles  uint64
		acc     workload.Access
		l2Lat   = c.L2HitLatency
		l3Lat   = c.L3HitLatency
		baseCPI = c.BaseCPI
		unitCPI = c.BaseCPI == 1.0
	)
	step := func(limit uint64) (uint64, phaseTimes) {
		var instrs uint64
		var p phaseTimes
		p.start = time.Now()
		now := nanotime()
		for instrs < limit {
			gen.Next(&acc)
			t1 := nanotime()
			p.gen += t1 - now
			gap := uint64(acc.Gap)
			instrs += gap
			if unitCPI {
				cycles += gap
			} else {
				cycles += uint64(float64(gap) * baseCPI)
			}
			out := hier.Access(acc.Addr, acc.Write)
			t2 := nanotime()
			p.hier += t2 - t1
			now = t2
			p.accesses++
			back := out.Hit == hierarchy.Memory || len(out.Writebacks) > 0
			switch out.Hit {
			case hierarchy.L2:
				cycles += l2Lat
			case hierarchy.L3:
				cycles += l3Lat
			case hierarchy.Memory:
				cycles += l3Lat
				p.events++
				if eng != nil {
					cycles += eng.Read(cycles, acc.Addr)
				} else {
					cycles += mem.Access(cycles, memlayout.BlockOf(acc.Addr), false)
				}
			}
			for _, wb := range out.Writebacks {
				p.events++
				if eng != nil {
					eng.Writeback(cycles, wb)
				} else {
					mem.Access(cycles, wb, true)
				}
			}
			if back {
				t3 := nanotime()
				p.back += t3 - now
				p.backCalls++
				now = t3
			}
		}
		p.end = time.Now()
		return instrs, p
	}

	warmInstr, warm := step(c.Warmup)
	hier.ResetStats()
	mem.ResetStats()
	if eng != nil {
		eng.ResetStats()
	}
	cyclesStart := cycles
	measured, meas := step(c.Instructions)
	cycles -= cyclesStart

	out := counters{
		Instructions: measured,
		Cycles:       cycles,
		Hier:         [3]cache.Stats{hier.L1Stats(), hier.L2Stats(), hier.L3Stats()},
		DRAM:         dramCountOf(mem.Stats()),
	}
	if eng != nil {
		es := eng.Stats()
		out.Mem = es.Mem
		out.PageReencryptions = es.PageReencryptions
		if meta := eng.Meta(); meta != nil {
			for _, k := range memlayout.MetaKinds {
				ks := meta.KindStats(k)
				out.Meta[k] = kindCount{ks.Accesses, ks.Hits, ks.Misses, ks.Bypassed}
			}
			for level := range out.Levels {
				ls := meta.LevelStats(level)
				if ls.Accesses == 0 {
					break
				}
				out.Levels[level] = kindCount{ls.Accesses, ls.Hits, ls.Misses, ls.Bypassed}
			}
			total := meta.TotalStats()
			lt.metaAccesses += total.Accesses
			lt.metaHits += total.Hits
		}
	}

	lt.runs++
	lt.instrs += warmInstr + measured
	ds := mem.Stats()
	lt.rowHits += ds.RowHits
	lt.dramAccesses += ds.Accesses()
	for _, p := range []phaseTimes{warm, meas} {
		lt.genNs += p.gen
		lt.hierNs += p.hier
		lt.accesses += p.accesses
		lt.llcEvents += p.events
		if eng != nil {
			lt.engNs += p.back
			lt.engCalls += p.backCalls
			lt.engEvents += p.events
		} else {
			lt.dramNs += p.back
			lt.dramCalls += p.backCalls
		}
	}
	if eng != nil {
		lt.measEngEvent += meas.events
	}
	lt.tracedNs += int64(time.Since(runStart))

	// One span per run, per phase, and per layer boundary. A layer span
	// aggregates that layer's calls within the phase.
	backName := "dram.Memory.Access"
	if eng != nil {
		backName = "engine.Read+Writeback"
	}
	run := spans.add(parent, "traced-run", runStart, time.Now(), map[string]any{"benchmark": c.Benchmark, "secure": c.Secure})
	spans.add(run, "sim.setup-constructors", setupStart, setupEnd, nil)
	for _, ph := range []struct {
		name string
		p    phaseTimes
	}{{"warmup", warm}, {"measure", meas}} {
		id := spans.add(run, ph.name, ph.p.start, ph.p.end, map[string]any{"accesses": ph.p.accesses})
		spans.add(id, "workload.Generator.Next", ph.p.start, ph.p.end, map[string]any{"calls": ph.p.accesses, "busy_ns": ph.p.gen})
		spans.add(id, "hierarchy.Access", ph.p.start, ph.p.end, map[string]any{"calls": ph.p.accesses, "busy_ns": ph.p.hier})
		spans.add(id, backName, ph.p.start, ph.p.end, map[string]any{"calls": ph.p.backCalls, "events": ph.p.events, "busy_ns": ph.p.back})
	}
	return out, nil
}

// traceRuns runs every config twice, untraced through sim.RunContext
// and through tracedRun, alternating, and checks that the traced loop
// reproduces RunContext's counters exactly. want, when non-nil, holds
// results the configs already produced in the timed run; they must
// match too.
func traceRuns(cfgs []sim.Config, want []counters, r *report, parent int) (*layerTimes, error) {
	lt := &layerTimes{}
	for i, cfg := range cfgs {
		t0 := time.Now()
		ref, err := sim.RunContext(context.Background(), cfg)
		if err != nil {
			return nil, err
		}
		lt.refNs += int64(time.Since(t0))
		lt.refLoop += int64(ref.Timing.Warmup + ref.Timing.Measure)
		got, err := tracedRun(cfg, lt, r.spans, parent)
		if err != nil {
			return nil, err
		}
		r.ops(2, 0)
		if ok, diff := sameOutput(countersOf(ref), got); !ok {
			r.mismatchf("traced loop differs from sim.RunContext on %s seed %d: %s", cfg.Benchmark, cfg.Seed, diff)
		}
		if want != nil {
			if ok, diff := sameOutput(countersOf(ref), want[i]); !ok {
				r.mismatchf("timed result differs from sim.RunContext on %s seed %d: %s", cfg.Benchmark, cfg.Seed, diff)
			}
		}
	}
	return lt, nil
}

// clockCost measures one nanotime read, the bias each traced interval
// carries.
func clockCost() float64 {
	const n = 1 << 20
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		t0 := nanotime()
		var sink int64
		for i := 0; i < n; i++ {
			sink += nanotime()
		}
		c := float64(nanotime()-t0) / n
		if rep == 0 || c < best {
			best = c
		}
		_ = sink
	}
	return best
}

// reportLayers prints the simulation-stack per-layer metrics.
func (lt *layerTimes) reportLayers(r *report, target string) {
	clock := clockCost()
	corr := func(ns int64, intervals uint64) float64 { return float64(ns) - clock*float64(intervals) }
	gen := corr(lt.genNs, lt.accesses)
	hier := corr(lt.hierNs, lt.accesses)
	eng := corr(lt.engNs, lt.engCalls)
	dr := corr(lt.dramNs, lt.dramCalls)
	acc := float64(lt.accesses)
	r.info("traced loop: %d runs, %d accesses, %d instructions; clock read %.1f ns subtracted per interval", lt.runs, lt.accesses, lt.instrs, clock)
	r.layer("workload.ns_per_access", gen/acc, "ns", fmt.Sprintf("over %d Generator.Next calls; moves %s", lt.accesses, target))
	r.layer("hierarchy.ns_per_access", hier/acc, "ns", fmt.Sprintf("over %d Hierarchy.Access calls; moves %s", lt.accesses, target))
	r.layer("hierarchy.llc_events_per_kinstr", float64(lt.llcEvents)/(float64(lt.instrs)/1000), "1/kinstr",
		fmt.Sprintf("%d LLC misses+writebacks over %d instructions (simulated); sets engine work", lt.llcEvents, lt.instrs))
	if lt.engEvents == 0 {
		r.info("engine, metacache: no work (0 LLC events reached the engine)")
	} else {
		r.layer("engine.ns_per_llc_event", eng/float64(lt.engEvents), "ns",
			fmt.Sprintf("over %d LLC events in %d intervals (metacache and dram inside); moves %s", lt.engEvents, lt.engCalls, target))
	}
	if lt.measEngEvent > 0 {
		r.layer("engine.meta_accesses_per_llc_event", float64(lt.metaAccesses)/float64(lt.measEngEvent), "ratio",
			fmt.Sprintf("%d metadata-cache accesses / %d LLC events, measured window (simulated)", lt.metaAccesses, lt.measEngEvent))
	}
	if lt.metaAccesses > 0 {
		r.layer("metacache.hit_ratio", float64(lt.metaHits)/float64(lt.metaAccesses), "ratio",
			fmt.Sprintf("%d hits / %d accesses via Engine.Meta(), measured window (simulated)", lt.metaHits, lt.metaAccesses))
	}
	if lt.dramCalls > 0 {
		r.layer("dram.ns_per_access", dr/float64(lt.llcEvents-lt.engEvents), "ns",
			fmt.Sprintf("over %d insecure Memory.Access calls; moves %s", lt.llcEvents-lt.engEvents, target))
	}
	r.layer("dram.row_hit_ratio", float64(lt.rowHits)/float64(max(lt.dramAccesses, 1)), "ratio",
		fmt.Sprintf("%d row hits / %d DRAM accesses, measured window (simulated)", lt.rowHits, lt.dramAccesses))
	r.layer("sim.setup_ms_per_run", float64(lt.setupNs)/1e6/float64(lt.runs), "ms",
		fmt.Sprintf("summed constructor calls over %d runs; moves %s", lt.runs, target))
	r.layer("sim.ns_per_access", float64(lt.refLoop)/acc, "ns",
		fmt.Sprintf("untraced RunContext warmup+measure %.3f s over %d accesses, every layer and the driver; moves %s", float64(lt.refLoop)/1e9, lt.accesses, target))
	// The driver's own cost is the untraced loop minus the traced layer
	// sum: two bases, and tracing perturbs the layers by more than the
	// driver costs, so it can read below zero. It is printed, not a metric.
	r.info("sim driver estimate %.1f ns/access (untraced RunContext loop minus traced layer sum)", (float64(lt.refLoop)-gen-hier-eng-dr)/acc)
	r.layer("sim.trace_overhead_ratio", float64(lt.tracedNs)/float64(lt.refNs)-1, "ratio",
		fmt.Sprintf("traced loop %.3f s vs untraced RunContext %.3f s on the same %d runs", float64(lt.tracedNs)/1e9, float64(lt.refNs)/1e9, lt.runs))
}
