// Front/back memoization.
//
// Every number a run reports is a function of the LLC miss/writeback
// stream (DESIGN.md §1), and that stream depends only on the front of
// the pipeline — the workload generator and the cache hierarchy. The
// back — metadata cache, secure engine, DRAM — consumes it. RunFront
// simulates the front once and records the stream as a compact event
// log (event, frontLog); RunBack replays a log through a fresh back.
// A sweep whose points differ only in back-end fields (Fig. 1's
// metadata size × content, replacement policies, org comparisons)
// simulates each front once and runs only the backs per point.
//
// RunBack(RunFront(cfg)) is bit-identical to RunContext(cfg) apart
// from Timing: the log carries exactly the cycle and instruction
// weight the fused loop accumulates between memory events, the
// warmup/measure boundary is a clean cut in the log, and the back
// issues each event's memory work in the fused loop's order.

package sim

import (
	"context"
	"fmt"

	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/dram"
	"github.com/maps-sim/mapsim/internal/hierarchy"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/obs"
	"github.com/maps-sim/mapsim/internal/secmem/engine"
	"github.com/maps-sim/mapsim/internal/workload"
)

// Front is the recorded front half of one run: the LLC event log with
// its warmup/measure boundary, the measured instruction count and
// hierarchy statistics, and the workload footprint the back sizes its
// memory layout by. It is immutable once RunFront returns, so any
// number of RunBack calls may share it concurrently.
//
// A log costs 24 B per LLC event (miss read or writeback burst) plus
// 8 B per writeback address, before slice growth slack.
type Front struct {
	cfg        Config // filled; only its front-end fields are used
	log        frontLog
	warmEvents int // log.events[:warmEvents] is the warmup
	warmWBs    int // log.wbs[:warmWBs] is the warmup's writebacks
	measured   uint64
	hier       [3]cache.Stats
	footprint  uint64
}

// setBack copies every back-end field — those the front's event log
// does not depend on — from src into dst. It is the one list behind
// FrontConfig and RunBack: a field missing here counts as front-end,
// which can only split groups of points that share a front, never
// merge two different fronts.
func setBack(dst *Config, src Config) {
	dst.Secure = src.Secure
	dst.Org = src.Org
	dst.Meta = src.Meta
	dst.Speculation = src.Speculation
	dst.SpeculationWindow = src.SpeculationWindow
	dst.DRAM = src.DRAM
}

// FrontConfig returns c with every back-end field (Secure, Org, Meta,
// Speculation, SpeculationWindow, DRAM) cleared: what remains is what
// RunFront's output depends on. Two configs whose canonical
// FrontConfigs are equal can share one Front.
func (c Config) FrontConfig() Config {
	setBack(&c, Config{})
	return c
}

// RunFront runs cfg's workload generator and cache hierarchy — the
// front half of RunContext — and records the LLC event stream for
// RunBack. Back-end fields of cfg are ignored. It checks ctx, ticks
// cfg.Progress, and evaluates the sim.step fault point at the same
// checkpoints as RunContext.
func RunFront(ctx context.Context, cfg Config) (*Front, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.DisableFastPath {
		cfg.Hierarchy.DisableFastPath = true
	}
	defer obs.Span(ctx, "front", "benchmark", cfg.Benchmark)()
	prog := cfg.Progress
	if prog != nil {
		prog.EnsureTotal(cfg.Warmup + cfg.Instructions)
	}
	gen := cfg.Workload
	gen.Reset(cfg.Seed)
	hier, err := hierarchy.New(cfg.Hierarchy)
	if err != nil {
		return nil, err
	}
	f := &Front{
		footprint: gen.Footprint(),
		log: frontLog{
			l2Lat:   cfg.L2HitLatency,
			l3Lat:   cfg.L3HitLatency,
			baseCPI: cfg.BaseCPI,
			unitCPI: cfg.BaseCPI == 1.0,
		},
	}
	var (
		acc        workload.Access
		sinceCheck uint64
	)
	step := func(limit uint64) (uint64, error) {
		var instrs uint64
		for instrs < limit {
			gen.Next(&acc)
			gap := uint64(acc.Gap)
			instrs += gap
			sinceCheck += gap
			if sinceCheck >= cancelCheckInterval {
				if prog != nil {
					prog.Add(sinceCheck)
				}
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					return instrs, err
				}
				if err := faultStep.Hit(); err != nil {
					return instrs, err
				}
			}
			f.log.record(hier, &acc)
		}
		return instrs, nil
	}

	if _, err := step(cfg.Warmup); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", cfg.Benchmark, err)
	}
	f.log.flush()
	f.warmEvents, f.warmWBs = len(f.log.events), len(f.log.wbs)
	hier.ResetStats()
	f.measured, err = step(cfg.Instructions)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", cfg.Benchmark, err)
	}
	f.log.flush()
	if prog != nil && sinceCheck > 0 {
		prog.Add(sinceCheck)
	}
	f.hier = [3]cache.Stats{hier.L1Stats(), hier.L2Stats(), hier.L3Stats()}
	cfg.Workload, cfg.Progress = nil, nil // the front must not pin either
	f.cfg = cfg
	return f, nil
}

// RunBack replays front through a fresh metadata cache, secure
// engine, and DRAM model built from cfg's back-end fields (and
// cfg.Tap) and returns the run's Result, bit-identical to RunContext
// on the front's own front-end fields combined with cfg's back-end
// ones. Front-end fields of cfg are ignored. Timing covers the back
// alone.
func RunBack(ctx context.Context, cfg Config, front *Front) (*Result, error) {
	c := front.cfg
	setBack(&c, cfg)
	c.Tap = cfg.Tap
	c.fillDefaults()
	if cfg.DisableFastPath && c.Meta != nil {
		metaCopy := *c.Meta
		metaCopy.DisableFastPath = true
		c.Meta = &metaCopy
	}
	endRun := obs.Span(ctx, "run", "benchmark", c.Benchmark)
	endSetup := obs.Span(ctx, "setup", "benchmark", c.Benchmark)
	mem, err := dram.New(c.DRAM)
	if err != nil {
		return nil, err
	}
	var eng *engine.Engine
	var meta *metacache.MetaCache
	if c.Secure {
		footprint := (front.footprint + memlayout.PageSize - 1) &^ (memlayout.PageSize - 1)
		layout, err := memlayout.New(c.Org, footprint)
		if err != nil {
			return nil, err
		}
		if c.Meta != nil {
			meta, err = metacache.New(*c.Meta)
			if err != nil {
				return nil, err
			}
		}
		eng, err = engine.New(engine.Config{
			Layout:            layout,
			Meta:              meta,
			DRAM:              mem,
			Speculation:       c.Speculation,
			SpeculationWindow: c.SpeculationWindow,
			Tap:               c.Tap,
		})
		if err != nil {
			return nil, err
		}
	}
	setupTime := endSetup()

	lg := &front.log
	endWarmup := obs.Span(ctx, "warmup", "benchmark", c.Benchmark)
	cycles, err := replayLog(ctx, eng, mem, 0, lg.events[:front.warmEvents], lg.wbs[:front.warmWBs])
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", c.Benchmark, err)
	}
	warmupTime := endWarmup()
	mem.ResetStats()
	if eng != nil {
		eng.ResetStats()
	}
	cyclesStart := cycles

	endMeasure := obs.Span(ctx, "measure", "benchmark", c.Benchmark)
	cycles, err = replayLog(ctx, eng, mem, cycles, lg.events[front.warmEvents:], lg.wbs[front.warmWBs:])
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", c.Benchmark, err)
	}
	measureTime := endMeasure()

	res := buildResult(c, front.measured, cycles-cyclesStart, front.hier, mem, eng, meta)
	res.Timing = PhaseTiming{
		Setup:   setupTime,
		Warmup:  warmupTime,
		Measure: measureTime,
		Total:   endRun(),
	}
	obs.From(ctx).Debug("run done",
		"benchmark", c.Benchmark,
		"instructions", front.measured,
		"ipc", res.IPC,
		"memoized", true,
		"wall", res.Timing.Total)
	return res, nil
}

// replayLog runs events, whose writebacks are wbs, through the back
// models starting at cycle cycles, and returns the final cycle count.
// Like the fused loop it checks ctx and the sim.step fault point every
// cancelCheckInterval instructions.
func replayLog(ctx context.Context, eng *engine.Engine, mem *dram.Memory, cycles uint64, events []event, wbs []uint64) (uint64, error) {
	var sinceCheck uint64
	wbIdx := 0
	for i := range events {
		e := &events[i]
		sinceCheck += uint64(e.instr)
		if sinceCheck >= cancelCheckInterval {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return cycles, err
			}
			if err := faultStep.Hit(); err != nil {
				return cycles, err
			}
		}
		n := int(e.nWB)
		cycles = replay(eng, mem, cycles, e, wbs[wbIdx:wbIdx+n])
		wbIdx += n
	}
	return cycles, nil
}

// event is one entry of the compact log the front records and the
// back consumes. pre and instr carry the cycle advance and
// instructions retired since the previous event (base CPI plus L2/L3
// hit latencies — everything the hierarchy resolves without memory).
type event struct {
	pre   uint64
	addr  uint64 // data address (evRead only)
	instr uint32
	nWB   uint16 // writebacks issued after the read (or alone, evWB)
	kind  uint8
}

const (
	evNull uint8 = iota // accumulator flush at a cut: no memory work
	evRead              // LLC miss read, followed by nWB writebacks
	evWB                // writebacks without a read (dirty evict under a hit)
)

// frontLog is an event log under construction: the recorded events,
// the writeback addresses they issue (flattened, in stream order), the
// cycle and instruction weight accumulated since the last event, and
// the per-access timing constants the fused loop hoists (latencies and
// CPI mode).
type frontLog struct {
	events     []event
	wbs        []uint64
	pendCycles uint64
	pendInstr  uint64

	l2Lat   uint64
	l3Lat   uint64
	baseCPI float64
	unitCPI bool
}

// flush records the pending weight as an evNull event, so the log can
// be cut here (a statistics reset, the end of the run) without weight
// crossing the cut.
func (l *frontLog) flush() {
	if l.pendCycles != 0 || l.pendInstr != 0 {
		l.events = append(l.events, event{pre: l.pendCycles, instr: uint32(l.pendInstr), kind: evNull})
		l.pendCycles, l.pendInstr = 0, 0
	}
}

// record is the front's per-access step: it runs one generator access
// through the cache hierarchy, charges its base-CPI and L2/L3 hit
// cycles to the pending weight, and logs any memory work it causes.
func (l *frontLog) record(hier *hierarchy.Hierarchy, acc *workload.Access) {
	gap := uint64(acc.Gap)
	l.pendInstr += gap
	if l.pendInstr >= 1<<31 {
		l.flush() // keep instr within its uint32
	}
	if l.unitCPI {
		l.pendCycles += gap
	} else {
		l.pendCycles += uint64(float64(gap) * l.baseCPI)
	}
	o := hier.Access(acc.Addr, acc.Write)
	switch o.Hit {
	case hierarchy.L2:
		l.pendCycles += l.l2Lat
	case hierarchy.L3:
		l.pendCycles += l.l3Lat
	case hierarchy.Memory:
		l.pendCycles += l.l3Lat
		l.events = append(l.events, event{
			pre: l.pendCycles, addr: acc.Addr,
			instr: uint32(l.pendInstr), nWB: uint16(len(o.Writebacks)), kind: evRead,
		})
		l.pendCycles, l.pendInstr = 0, 0
		l.wbs = append(l.wbs, o.Writebacks...)
		return
	}
	if len(o.Writebacks) > 0 {
		// A hit can still evict dirty blocks from the LLC (the insert
		// cascade below the hit level).
		l.events = append(l.events, event{
			pre: l.pendCycles, instr: uint32(l.pendInstr),
			nWB: uint16(len(o.Writebacks)), kind: evWB,
		})
		l.pendCycles, l.pendInstr = 0, 0
		l.wbs = append(l.wbs, o.Writebacks...)
	}
}

// replay is the back's per-event step: it advances the clock by the
// event's front weight, then issues the event's memory work — the
// miss read and its writebacks wbs — through the secure engine, or
// straight to DRAM when eng is nil (an insecure run). It returns the
// advanced cycle count.
func replay(eng *engine.Engine, mem *dram.Memory, cycles uint64, e *event, wbs []uint64) uint64 {
	cycles += e.pre
	if e.kind == evRead {
		if eng != nil {
			cycles += eng.Read(cycles, e.addr)
		} else {
			cycles += mem.Access(cycles, memlayout.BlockOf(e.addr), false)
		}
	}
	for _, wb := range wbs {
		if eng != nil {
			eng.Writeback(cycles, wb)
		} else {
			mem.Access(cycles, wb, true)
		}
	}
	return cycles
}
