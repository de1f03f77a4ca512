// Package sim is the top-level simulation driver: it runs a workload
// through the cache hierarchy and (optionally) the secure-memory
// engine, producing the timing, traffic, MPKI, and energy numbers the
// MAPS experiments report.
//
// The core model is deliberately simple — a fixed base CPI plus
// blocking stalls for hierarchy and memory latency — because every
// result in the paper is driven by the LLC miss/writeback stream and
// the metadata traffic it induces, not by core microarchitecture
// (DESIGN.md §1).
package sim

import (
	"context"
	"fmt"
	"time"

	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/dram"
	"github.com/maps-sim/mapsim/internal/energy"
	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/hierarchy"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/obs"
	"github.com/maps-sim/mapsim/internal/secmem/engine"
	"github.com/maps-sim/mapsim/internal/trace"
	"github.com/maps-sim/mapsim/internal/workload"
	"github.com/maps-sim/mapsim/internal/workload/spec"
)

// Config describes one simulation.
type Config struct {
	// Benchmark selects a workload by name; Workload overrides it
	// with a caller-supplied generator.
	Benchmark string
	Workload  workload.Generator

	// WorkloadSpec selects a declarative multi-client workload
	// (internal/workload/spec) instead of a named benchmark. Benchmark
	// may be left empty (it is filled from the spec's name) or must
	// match it. Unlike Workload, a spec is pure data: spec-driven
	// configs canonicalize, hash, and dedupe through the result cache
	// like named-benchmark runs.
	WorkloadSpec *spec.Spec

	// TracePath replays a recorded streaming trace (see `mapstrace
	// record-workload`) as the workload. The file is machine-local
	// state, so trace-driven configs have no canonical form and never
	// enter the result cache.
	TracePath string

	// Instructions is the measured instruction count (default 2M).
	Instructions uint64
	// Warmup is the unmeasured prefix (default Instructions/10).
	Warmup uint64
	// Seed drives the workload's randomness.
	Seed int64

	// Hierarchy sets the cache stack; zero selects Table I.
	Hierarchy hierarchy.Config

	// Secure enables the secure-memory engine. When false the run is
	// the insecure baseline used for normalization.
	Secure bool
	// Org selects the counter organization.
	Org memlayout.Organization
	// Meta configures the metadata cache; nil simulates no metadata
	// cache (every metadata access goes to memory).
	Meta *metacache.Config
	// Speculation hides verification latency (PoisonIvy).
	Speculation bool
	// SpeculationWindow bounds the hidden verification latency in
	// cycles; zero = unbounded. Ignored without Speculation.
	SpeculationWindow uint64

	// DRAM sets memory timing; zero selects dram.Default.
	DRAM dram.Config
	// BaseCPI is the cycles-per-instruction floor (default 1.0).
	BaseCPI float64
	// L2HitLatency and L3HitLatency are the extra stall cycles for
	// hits below L1 (defaults 12 and 40).
	L2HitLatency uint64
	L3HitLatency uint64

	// Tap observes every metadata access the engine makes, warmup
	// included, for reuse analysis and trace recording.
	Tap func(trace.Access)

	// Progress, when non-nil, is ticked with retired instructions from
	// the run's cancellation checkpoints (every 64Ki instructions), so
	// an observer can watch a long run advance. Leaving it nil — the
	// default — costs the hot loop a nil check and nothing else.
	Progress *obs.Progress

	// DisableFastPath routes every cache (hierarchy levels and the
	// metadata cache) through the generic Policy interface instead of
	// the devirtualized fast path. The two paths are bit-identical by
	// contract — this knob exists so the cross-check tests can prove
	// it — so it is erased during canonicalization and never affects
	// cached results.
	DisableFastPath bool
}

func (c *Config) fill() error {
	if c.Workload == nil {
		switch {
		case c.WorkloadSpec != nil:
			if c.TracePath != "" {
				return fmt.Errorf("sim: WorkloadSpec and TracePath are mutually exclusive")
			}
			if c.Benchmark != "" && c.Benchmark != c.WorkloadSpec.Name {
				return fmt.Errorf("sim: Benchmark %q conflicts with WorkloadSpec name %q", c.Benchmark, c.WorkloadSpec.Name)
			}
			g, err := c.WorkloadSpec.Generator()
			if err != nil {
				return err
			}
			c.Workload = g
		case c.TracePath != "":
			if c.Benchmark != "" {
				return fmt.Errorf("sim: Benchmark and TracePath are mutually exclusive")
			}
			g, err := workload.NewTraceReplay(c.TracePath)
			if err != nil {
				return err
			}
			c.Workload = g
		case c.Benchmark != "":
			g, err := workload.New(c.Benchmark)
			if err != nil {
				return err
			}
			c.Workload = g
		default:
			return fmt.Errorf("sim: one of Benchmark, WorkloadSpec, TracePath, or Workload is required")
		}
	}
	c.fillDefaults()
	return nil
}

// Canonical returns the configuration with every default applied —
// the same rules Run uses — without resolving the workload generator,
// so two configs that would simulate identically compare (and hash)
// equal. It is the canonicalization step behind the result cache's
// content addressing. Configs carrying caller-supplied state
// (Workload, Tap, Progress, Meta.Policy, Meta.Partition) have no
// canonical form and are rejected.
func (c Config) Canonical() (Config, error) {
	switch {
	case c.Workload != nil:
		return c, fmt.Errorf("sim: config with a caller-supplied Workload is not canonicalizable")
	case c.TracePath != "":
		return c, fmt.Errorf("sim: config with a TracePath is not canonicalizable (trace files are machine-local)")
	case c.Tap != nil:
		return c, fmt.Errorf("sim: config with a Tap is not canonicalizable")
	case c.Progress != nil:
		return c, fmt.Errorf("sim: config with a Progress is not canonicalizable")
	case c.Meta != nil && (c.Meta.Policy != nil || c.Meta.Partition != nil):
		return c, fmt.Errorf("sim: config with a stateful Meta.Policy or Meta.Partition is not canonicalizable")
	case c.Benchmark == "" && c.WorkloadSpec == nil:
		return c, fmt.Errorf("sim: Benchmark is required")
	}
	if c.WorkloadSpec != nil {
		if err := c.WorkloadSpec.Validate(); err != nil {
			return c, err
		}
		if c.Benchmark != "" && c.Benchmark != c.WorkloadSpec.Name {
			return c, fmt.Errorf("sim: Benchmark %q conflicts with WorkloadSpec name %q", c.Benchmark, c.WorkloadSpec.Name)
		}
		// Normalize the spec so equivalent spellings hash identically.
		c.WorkloadSpec = c.WorkloadSpec.Canonicalize()
	}
	if c.Meta != nil {
		metaCopy := *c.Meta
		c.Meta = &metaCopy
		c.Meta.DisableFastPath = false
		if c.Meta.Content == 0 {
			// metacache.New defaults an unset content policy to
			// AllTypes; mirror it so a zero and an explicit AllTypes
			// config — which simulate identically — hash identically
			// (the fleet's wire round-trip depends on this).
			c.Meta.Content = metacache.AllTypes
		}
	}
	c.fillDefaults()
	// The fast and generic paths produce bit-identical results, so the
	// knob carries no simulation identity.
	c.DisableFastPath = false
	c.Hierarchy.DisableFastPath = false
	return c, nil
}

// fillDefaults applies every scalar default. Run's fill and Canonical
// share it so content addressing can never drift from what Run would
// actually simulate.
func (c *Config) fillDefaults() {
	if c.Benchmark == "" && c.Workload != nil {
		c.Benchmark = c.Workload.Name()
	}
	if c.Benchmark == "" && c.WorkloadSpec != nil {
		c.Benchmark = c.WorkloadSpec.Name
	}
	if c.Instructions == 0 {
		c.Instructions = 2_000_000
	}
	if c.Warmup == 0 {
		c.Warmup = c.Instructions / 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Hierarchy == (hierarchy.Config{}) {
		c.Hierarchy = hierarchy.Default()
	}
	if c.DRAM == (dram.Config{}) {
		c.DRAM = dram.Default()
	}
	if c.BaseCPI == 0 {
		c.BaseCPI = 1.0
	}
	if c.L2HitLatency == 0 {
		c.L2HitLatency = 12
	}
	if c.L3HitLatency == 0 {
		c.L3HitLatency = 40
	}
}

// KindResult summarizes one metadata kind. Bypassed accesses (kinds
// the content policy excludes) are not misses — matching the paper's
// Figure 1 metric — but still generate memory traffic.
type KindResult struct {
	Accesses uint64  `json:"accesses"`
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	Bypassed uint64  `json:"bypassed"`
	MPKI     float64 `json:"mpki"`
}

// PhaseTiming records where a run's wall-clock time went, split by
// simulation phase. Durations serialize as nanoseconds. The phase
// names match the span taxonomy in docs/OBSERVABILITY.md: setup
// (building the hierarchy, DRAM model, and secure-memory engine),
// warmup (the unmeasured prefix), and measure (the measured window).
type PhaseTiming struct {
	Setup   time.Duration `json:"setup_ns"`
	Warmup  time.Duration `json:"warmup_ns"`
	Measure time.Duration `json:"measure_ns"`
	Total   time.Duration `json:"total_ns"`
}

// Result is the output of one simulation.
type Result struct {
	Benchmark    string  `json:"benchmark"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`

	LLC      cache.Stats    `json:"llc"`
	LLCMPKI  float64        `json:"llc_mpki"`
	Hier     [3]cache.Stats `json:"hierarchy"` // L1, L2, L3
	DataMPKI float64        `json:"data_mpki"` // alias of LLCMPKI for readability

	// Metadata cache results (zero when no metadata cache / insecure).
	Meta        map[memlayout.Kind]KindResult `json:"meta,omitempty"`
	MetaMPKI    float64                       `json:"meta_mpki"`    // metadata-cache misses per kilo-instruction
	MetaMemPKI  float64                       `json:"meta_mem_pki"` // metadata *memory accesses* per kilo-instruction
	MetaHitRate float64                       `json:"meta_hit_rate"`
	// TreeLevels holds per-tree-level cache behaviour (leaf first);
	// upper levels cover more data and should hit more.
	TreeLevels []KindResult `json:"tree_levels,omitempty"`

	Mem               engine.MemTraffic `json:"mem_traffic"`
	PageReencryptions uint64            `json:"page_reencryptions"`
	SpecWindowStalls  uint64            `json:"spec_window_stalls"`

	DRAM dram.Stats `json:"dram"`

	Energy   energy.Account `json:"energy"`
	EnergyPJ float64        `json:"energy_pj"`
	ED2      float64        `json:"ed2"`

	// Timing is the run's own wall-clock profile (host time, not
	// simulated cycles).
	Timing PhaseTiming `json:"timing"`
}

// cancelCheckInterval is how many instructions the simulation loop
// retires between context checks — rare enough that the check never
// shows up in profiles, frequent enough (~100 µs of simulated work)
// that cancellation feels immediate.
const cancelCheckInterval = 1 << 16

// faultStep is the injection point armed (as "sim.step") to make a
// running simulation fail or stall mid-flight. It is evaluated only at
// cancellation checkpoints — every 64Ki instructions — so the per-access
// hot loop carries no fault-injection cost at all, and even the
// checkpoint pays one inlined atomic load while disarmed (the
// benchcheck gate holds it to that).
var faultStep = faults.P("sim.step")

// Run executes one simulation to completion; it cannot be cancelled.
func Run(cfg Config) (*Result, error) { return RunContext(context.Background(), cfg) }

// RunContext executes one simulation, stopping early with ctx.Err()
// if the context is cancelled or its deadline passes mid-run.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.DisableFastPath {
		cfg.Hierarchy.DisableFastPath = true
		if cfg.Meta != nil {
			metaCopy := *cfg.Meta
			metaCopy.DisableFastPath = true
			cfg.Meta = &metaCopy
		}
	}
	endRun := obs.Span(ctx, "run", "benchmark", cfg.Benchmark)
	endSetup := obs.Span(ctx, "setup", "benchmark", cfg.Benchmark)
	prog := cfg.Progress
	if prog != nil {
		// EnsureTotal, not Start: in a suite fan-out the coordinator
		// has already published the whole suite's total.
		prog.EnsureTotal(cfg.Warmup + cfg.Instructions)
	}
	gen := cfg.Workload
	gen.Reset(cfg.Seed)

	hier, err := hierarchy.New(cfg.Hierarchy)
	if err != nil {
		return nil, err
	}
	mem, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}

	var eng *engine.Engine
	var meta *metacache.MetaCache
	if cfg.Secure {
		footprint := (gen.Footprint() + memlayout.PageSize - 1) &^ (memlayout.PageSize - 1)
		layout, err := memlayout.New(cfg.Org, footprint)
		if err != nil {
			return nil, err
		}
		if cfg.Meta != nil {
			meta, err = metacache.New(*cfg.Meta)
			if err != nil {
				return nil, err
			}
		}
		eng, err = engine.New(engine.Config{
			Layout:            layout,
			Meta:              meta,
			DRAM:              mem,
			Speculation:       cfg.Speculation,
			SpeculationWindow: cfg.SpeculationWindow,
			Tap:               cfg.Tap,
		})
		if err != nil {
			return nil, err
		}
	}

	// Per-access invariants, hoisted out of the inner loop: latency
	// constants, the CPI mode, and the engine presence test.
	var (
		cycles     uint64
		acc        workload.Access
		sinceCheck uint64
		l2Lat      = cfg.L2HitLatency
		l3Lat      = cfg.L3HitLatency
		baseCPI    = cfg.BaseCPI
		unitCPI    = cfg.BaseCPI == 1.0
		secure     = eng != nil
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
			if unitCPI {
				// The common BaseCPI == 1 case stays in pure integer
				// math; the float path rounds identically for it.
				cycles += gap
			} else {
				cycles += uint64(float64(gap) * baseCPI)
			}
			out := hier.Access(acc.Addr, acc.Write)
			switch out.Hit {
			case hierarchy.L2:
				cycles += l2Lat
			case hierarchy.L3:
				cycles += l3Lat
			case hierarchy.Memory:
				cycles += l3Lat
				if secure {
					cycles += eng.Read(cycles, acc.Addr)
				} else {
					cycles += mem.Access(cycles, memlayout.BlockOf(acc.Addr), false)
				}
			}
			if len(out.Writebacks) > 0 {
				if secure {
					for _, wb := range out.Writebacks {
						eng.Writeback(cycles, wb)
					}
				} else {
					for _, wb := range out.Writebacks {
						mem.Access(cycles, wb, true)
					}
				}
			}
		}
		return instrs, nil
	}

	setupTime := endSetup()

	// Warmup: run, then discard statistics (state persists).
	endWarmup := obs.Span(ctx, "warmup", "benchmark", cfg.Benchmark)
	if _, err := step(cfg.Warmup); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", cfg.Benchmark, err)
	}
	warmupTime := endWarmup()
	hier.ResetStats()
	mem.ResetStats()
	if eng != nil {
		eng.ResetStats()
	}
	cyclesStart := cycles

	endMeasure := obs.Span(ctx, "measure", "benchmark", cfg.Benchmark)
	measured, err := step(cfg.Instructions)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", cfg.Benchmark, err)
	}
	measureTime := endMeasure()
	cycles -= cyclesStart
	if prog != nil && sinceCheck > 0 {
		// Flush the sub-checkpoint remainder so the run finishes at
		// exactly Warmup+Instructions done.
		prog.Add(sinceCheck)
		sinceCheck = 0
	}

	hierStats := [3]cache.Stats{hier.L1Stats(), hier.L2Stats(), hier.L3Stats()}
	res := buildResult(cfg, measured, cycles, hierStats, mem, eng, meta)
	res.Timing = PhaseTiming{
		Setup:   setupTime,
		Warmup:  warmupTime,
		Measure: measureTime,
		Total:   endRun(),
	}
	obs.From(ctx).Debug("run done",
		"benchmark", cfg.Benchmark,
		"instructions", measured,
		"ipc", res.IPC,
		"wall", res.Timing.Total)
	return res, nil
}

// buildResult assembles the reported Result (everything except
// Timing) from a finished run's measured instructions and cycles, its
// hierarchy statistics, and its back models; eng and meta are nil
// when the run had none.
func buildResult(cfg Config, measured, cycles uint64, hier [3]cache.Stats, mem *dram.Memory,
	eng *engine.Engine, meta *metacache.MetaCache) *Result {
	res := &Result{
		Benchmark:    cfg.Benchmark,
		Instructions: measured,
		Cycles:       cycles,
		Hier:         hier,
		LLC:          hier[2],
		DRAM:         mem.Stats(),
	}
	kilo := float64(measured) / 1000
	res.IPC = float64(measured) / float64(cycles)
	res.LLCMPKI = float64(res.LLC.Misses) / kilo
	res.DataMPKI = res.LLCMPKI

	if eng != nil {
		es := eng.Stats()
		res.Mem = es.Mem
		res.PageReencryptions = es.PageReencryptions
		res.SpecWindowStalls = es.SpecWindowStalls
		res.MetaMemPKI = float64(es.Mem.Metadata()) / kilo
		if meta != nil {
			res.Meta = make(map[memlayout.Kind]KindResult, 3)
			var misses, accesses, hits uint64
			for _, k := range memlayout.MetaKinds {
				ks := meta.KindStats(k)
				res.Meta[k] = KindResult{
					Accesses: ks.Accesses,
					Hits:     ks.Hits,
					Misses:   ks.Misses,
					Bypassed: ks.Bypassed,
					MPKI:     float64(ks.Misses) / kilo,
				}
				misses += ks.Misses
				accesses += ks.Accesses
				hits += ks.Hits
			}
			res.MetaMPKI = float64(misses) / kilo
			if accesses > 0 {
				res.MetaHitRate = float64(hits) / float64(accesses)
			}
			for level := 0; level < 16; level++ {
				ls := meta.LevelStats(level)
				if ls.Accesses == 0 {
					break
				}
				res.TreeLevels = append(res.TreeLevels, KindResult{
					Accesses: ls.Accesses,
					Hits:     ls.Hits,
					Misses:   ls.Misses,
					Bypassed: ls.Bypassed,
					MPKI:     float64(ls.Misses) / kilo,
				})
			}
		} else {
			// No metadata cache: every metadata memory access is a
			// "miss" for MPKI purposes.
			res.MetaMPKI = res.MetaMemPKI
		}
	}

	// Energy: core + per-level SRAM (dynamic + leakage) + metadata
	// SRAM + DRAM.
	res.Energy.AddInstructions(measured)
	res.Energy.AddSRAM(cfg.Hierarchy.L1Size, res.Hier[0].Accesses)
	res.Energy.AddSRAM(cfg.Hierarchy.L2Size, res.Hier[1].Accesses)
	res.Energy.AddSRAM(cfg.Hierarchy.L3Size, res.Hier[2].Accesses)
	res.Energy.AddSRAMLeakage(cfg.Hierarchy.L1Size+cfg.Hierarchy.L2Size+cfg.Hierarchy.L3Size, cycles)
	if meta != nil {
		res.Energy.AddSRAM(meta.Size(), meta.TotalStats().Accesses)
		res.Energy.AddSRAMLeakage(meta.Size(), cycles)
	}
	res.Energy.AddDRAMPJ(res.DRAM.EnergyPJ)
	res.EnergyPJ = res.Energy.TotalPJ()
	res.ED2 = energy.ED2(res.EnergyPJ, res.Cycles)
	return res
}
