// Epoch-parallel intra-run simulation.
//
// RunContext normally walks the access stream once, single-threaded.
// When Config.Shards asks for intra-run parallelism the driver below
// splits the stream into near-equal epochs and pipelines them across
// cores, merging per-epoch statistics with a fixed-order integer
// reduction so the output is bit-identical to the sequential path:
//
//	scan       one generator-only pass places epoch boundaries (the
//	           warmup/measure boundary is always a boundary, because
//	           the sequential path resets statistics there) and
//	           snapshots the generator at each
//	front      per epoch, in parallel: the cache hierarchy runs from a
//	           speculative cold start (epoch 0 from the true cold
//	           start) and records a compact event log — LLC miss
//	           reads and writeback bursts, each carrying the cycle
//	           and instruction weight accumulated since the previous
//	           event — plus fingerprint checkpoints at geometrically
//	           spaced positions
//	reconcile  in epoch order: each epoch is re-run from its true
//	           predecessor state and compared against its speculative
//	           run at the checkpoints; on a fingerprint match the
//	           speculative suffix (events, writebacks, stat deltas)
//	           is spliced onto the replay prefix, otherwise the
//	           replay runs to the end (full replay)
//	fold       a sequential walk of the now-exact writeback stream
//	           advances the logical encryption counters, snapshotting
//	           them at epoch boundaries, so every epoch's engine sees
//	           split-counter overflows exactly where the sequential
//	           run would
//	back       per epoch, in parallel: the metadata cache, secure
//	           engine, and DRAM timing model consume the exact event
//	           log, again speculatively cold-started and reconciled
//	           through relative-basis fingerprints (bank readyAt and
//	           the HMAC engine's readyAt are compared as remaining
//	           cycles, since speculative and exact runs disagree on
//	           absolute cycle counts)
//	merge      per-epoch integer counters sum in epoch order over the
//	           measured epochs only; derived floats (energy, MPKI,
//	           IPC) are computed once from the merged totals, which
//	           is why they cannot drift from the sequential path
//
// Speculation is confined to cache/bank/HMAC state: the generator
// snapshots are exact, so access and writeback streams never need
// re-deriving, and the counter fold is exact by construction. A
// fingerprint match certifies behavioral equivalence (identical
// future hits, misses, evictions, and latencies), not bit-equality —
// see cache.Cache.Fingerprint for the per-policy contracts.

package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/maps-sim/mapsim/internal/cache"
	"github.com/maps-sim/mapsim/internal/dram"
	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/hierarchy"
	"github.com/maps-sim/mapsim/internal/memlayout"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/obs"
	"github.com/maps-sim/mapsim/internal/secmem/ctr"
	"github.com/maps-sim/mapsim/internal/secmem/engine"
	"github.com/maps-sim/mapsim/internal/workload"
)

// AutoShards, assigned to Config.Shards, derives the shard count from
// the CPU budget left over after inter-run parallelism (see
// WithConcurrency) instead of forcing a fixed value.
const AutoShards = -1

// maxAutoShards caps derived shard counts; beyond this the
// reconciliation chain, not the parallel phases, dominates.
const maxAutoShards = 16

// cpuCount is swapped by tests to exercise the CPU-budget math on a
// fixed "machine size".
var cpuCount = runtime.NumCPU

// faultEpoch is the injection point armed (as "sim.epoch") to make a
// speculative epoch fail at launch, exercising the parallel driver's
// teardown path.
var faultEpoch = faults.P("sim.epoch")

type concurrencyKey struct{}

// WithConcurrency records that the caller is already running n
// simulations in parallel. Nested callers compose multiplicatively
// (a 4-worker job pool running 2-way suite fan-outs occupies 8
// cores), and AutoShards divides the machine's CPUs by the recorded
// product so intra-run sharding never oversubscribes the host.
func WithConcurrency(ctx context.Context, n int) context.Context {
	if n < 1 {
		n = 1
	}
	return context.WithValue(ctx, concurrencyKey{}, concurrencyFrom(ctx)*n)
}

// ConcurrencyFromContext returns the inter-run parallelism recorded
// by WithConcurrency (1 when unset).
func ConcurrencyFromContext(ctx context.Context) int { return concurrencyFrom(ctx) }

func concurrencyFrom(ctx context.Context) int {
	if v, ok := ctx.Value(concurrencyKey{}).(int); ok && v > 0 {
		return v
	}
	return 1
}

// effectiveShards resolves Config.Shards against the context's CPU
// budget: 0 or 1 stays sequential, an explicit count is honored
// as-is, and AutoShards takes the CPUs not already claimed by
// inter-run parallelism.
func effectiveShards(ctx context.Context, shards int) int {
	switch {
	case shards == 0 || shards == 1:
		return 1
	case shards > 1:
		return shards
	}
	n := cpuCount() / concurrencyFrom(ctx)
	if n < 1 {
		n = 1
	}
	if n > maxAutoShards {
		n = maxAutoShards
	}
	return n
}

// activeShards counts shard workers across all in-flight parallel
// runs, for the mapsd_run_shards gauge.
var activeShards atomic.Int64

// ActiveShards reports how many intra-run shard slots are currently
// claimed across all in-flight runs in this process.
func ActiveShards() int64 { return activeShards.Load() }

// ShardStats diagnoses how the epoch-parallel run went: how many
// epochs converged at a fingerprint checkpoint (splices) versus
// degenerating into a full sequential replay, and how much work the
// reconciliation chain re-did. High full-replay counts mean the
// workload's state does not converge from a cold start and the run
// gained little from sharding (docs/PERFORMANCE.md).
type ShardStats struct {
	Shards                int    `json:"shards"`
	Epochs                int    `json:"epochs"`
	FrontSplices          int    `json:"front_splices"`
	FrontFullReplays      int    `json:"front_full_replays"`
	FrontReplayedAccesses uint64 `json:"front_replayed_accesses"`
	BackSplices           int    `json:"back_splices"`
	BackFullReplays       int    `json:"back_full_replays"`
	BackReplayedEvents    uint64 `json:"back_replayed_events"`
}

// shardable reports whether the configuration can run epoch-parallel
// at all: a Tap must observe the true interleaved metadata stream
// (which sharding does not preserve during speculation), and the
// generator must be snapshottable at epoch boundaries. Stateful
// metadata-cache policies and partitions are checked at run time via
// metacache.Cloneable.
func (c *Config) shardable() bool {
	if c.Tap != nil {
		return false
	}
	_, ok := c.Workload.(workload.Cloner)
	return ok
}

// ---------------------------------------------------------------------------
// Epoch planning

type epochPlan struct {
	gen      workload.Generator // snapshot at the epoch's first access
	accesses uint64
	warm     bool
}

// planEpochs walks the generator twice: once to count the accesses in
// the warmup and measured windows (replicating the sequential loop's
// overshoot — the final access's gap may carry the retired count past
// the limit), and once to snapshot the generator at each epoch start.
// It returns nil when the workload cannot be planned (not a Cloner).
func planEpochs(ctx context.Context, cfg *Config, shards int) ([]epochPlan, error) {
	cl, ok := cfg.Workload.(workload.Cloner)
	if !ok {
		return nil, nil
	}
	gen := cfg.Workload
	gen.Reset(cfg.Seed)
	var acc workload.Access
	countTo := func(limit uint64) (uint64, error) {
		var instrs, accs, sinceCheck uint64
		for instrs < limit {
			gen.Next(&acc)
			gap := uint64(acc.Gap)
			instrs += gap
			accs++
			sinceCheck += gap
			if sinceCheck >= cancelCheckInterval {
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
		}
		return accs, nil
	}
	aW, err := countTo(cfg.Warmup)
	if err != nil {
		return nil, err
	}
	aM, err := countTo(cfg.Instructions)
	if err != nil {
		return nil, err
	}

	var plans []epochPlan
	split := func(total uint64, warm bool) {
		k := uint64(shards)
		if k > total {
			k = total
		}
		if k == 0 {
			return
		}
		base, extra := total/k, total%k
		for j := uint64(0); j < k; j++ {
			n := base
			if j < extra {
				n++
			}
			plans = append(plans, epochPlan{accesses: n, warm: warm})
		}
	}
	split(aW, true)
	split(aM, false)
	if len(plans) < 2 {
		return nil, nil
	}

	gen.Reset(cfg.Seed)
	for i := range plans {
		snap := cl.Clone()
		if _, ok := snap.(workload.Cloner); !ok {
			// The snapshot itself must be cloneable again (spec run +
			// possible replay both start from it).
			return nil, nil
		}
		plans[i].gen = snap
		for j := uint64(0); j < plans[i].accesses; j++ {
			gen.Next(&acc)
			if j&0xFFFF == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
		}
	}
	return plans, nil
}

func cloneGen(g workload.Generator) workload.Generator {
	return g.(workload.Cloner).Clone()
}

// ---------------------------------------------------------------------------
// Event log

// event is one entry of the compact log the front pass records and
// the back pass consumes. pre and instr carry the cycle advance and
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
	evNull uint8 = iota // accumulator flush at a checkpoint: no memory work
	evRead              // LLC miss read, followed by nWB writebacks
	evWB                // writebacks without a read (dirty evict under a hit)
)

// frontLog is an event log under construction: the recorded events,
// the writeback addresses they issue (flattened, in stream order),
// and the cycle and instruction weight accumulated since the last
// event.
type frontLog struct {
	events     []event
	wbs        []uint64
	pendCycles uint64
	pendInstr  uint64
}

// flush records the pending weight as an evNull event, so the log can
// be cut here (a checkpoint, a statistics reset) without weight
// crossing the cut.
func (l *frontLog) flush() {
	if l.pendCycles != 0 || l.pendInstr != 0 {
		l.events = append(l.events, event{pre: l.pendCycles, instr: uint32(l.pendInstr), kind: evNull})
		l.pendCycles, l.pendInstr = 0, 0
	}
}

// access is the front's per-access step: it runs one generator access
// through the cache hierarchy, charges its base-CPI and L2/L3 hit
// cycles to the pending weight, and logs any memory work it causes.
func (pr *parRun) access(l *frontLog, hier *hierarchy.Hierarchy, acc *workload.Access) {
	gap := uint64(acc.Gap)
	l.pendInstr += gap
	if l.pendInstr >= 1<<31 {
		l.flush() // keep instr within its uint32
	}
	if pr.unitCPI {
		l.pendCycles += gap
	} else {
		l.pendCycles += uint64(float64(gap) * pr.baseCPI)
	}
	o := hier.Access(acc.Addr, acc.Write)
	switch o.Hit {
	case hierarchy.L2:
		l.pendCycles += pr.l2Lat
	case hierarchy.L3:
		l.pendCycles += pr.l3Lat
	case hierarchy.Memory:
		l.pendCycles += pr.l3Lat
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

// Checkpoint spacing doubles from these bases: dense early — where a
// cold speculative start is most likely to have just converged — and
// sparse late, so checkpoint overhead stays logarithmic.
const (
	frontCkptBase = 4096 // accesses
	backCkptBase  = 256  // events
)

// ---------------------------------------------------------------------------
// Front pass: generator + cache hierarchy

type frontCkpt struct {
	access  uint64
	fp      uint64
	nEvents int
	nWBs    int
	stats   [3]cache.Stats
}

type frontOut struct {
	frontLog
	ckpts       []frontCkpt
	stats       [3]cache.Stats // cumulative at end (or at the match point)
	instrs      uint64
	endHier     *hierarchy.Hierarchy
	converged   int // index into the spec's ckpts where the replay matched, -1 otherwise
	ranAccesses uint64
}

// parRun carries the per-access invariants the sequential loop hoists
// (latency constants, CPI mode) plus the layout shared by every
// epoch's engine.
type parRun struct {
	cfg     *Config
	layout  *memlayout.Layout
	secure  bool
	l2Lat   uint64
	l3Lat   uint64
	baseCPI float64
	unitCPI bool
}

// runFront simulates `accesses` accesses of one epoch through the
// cache hierarchy only, recording the event log. With spec == nil it
// records fingerprint checkpoints at the geometric schedule
// (speculative mode); with a speculative run's checkpoints it instead
// compares its own fingerprint at each recorded position and stops at
// the first match (replay mode).
func (pr *parRun) runFront(ctx context.Context, gen workload.Generator, hier *hierarchy.Hierarchy, accesses uint64, spec []frontCkpt) (*frontOut, error) {
	out := &frontOut{converged: -1}
	var (
		acc     workload.Access
		nextCk  = uint64(frontCkptBase)
		specIdx int
	)
	snapStats := func() [3]cache.Stats {
		return [3]cache.Stats{hier.L1Stats(), hier.L2Stats(), hier.L3Stats()}
	}
	for a := uint64(0); a < accesses; a++ {
		gen.Next(&acc)
		out.instrs += uint64(acc.Gap)
		pr.access(&out.frontLog, hier, &acc)
		if a&0x3FFF == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		done := a + 1
		if spec == nil {
			if done == nextCk && done < accesses {
				out.flush()
				out.ckpts = append(out.ckpts, frontCkpt{
					access: done, fp: hier.Fingerprint(),
					nEvents: len(out.events), nWBs: len(out.wbs),
					stats: snapStats(),
				})
				nextCk *= 2
			}
		} else if specIdx < len(spec) && done == spec[specIdx].access {
			out.flush()
			if hier.Fingerprint() == spec[specIdx].fp {
				out.converged = specIdx
				out.stats = snapStats()
				out.ranAccesses = done
				return out, nil
			}
			specIdx++
		}
	}
	out.flush()
	out.stats = snapStats()
	out.endHier = hier
	out.ranAccesses = accesses
	return out, nil
}

// spliceFront combines a replay prefix (exact through the matched
// checkpoint) with a speculative suffix. The accumulator flush at
// every checkpoint guarantees the cut is a clean concatenation: the
// spec's events after ck.nEvents carry no weight from before the
// checkpoint.
func spliceFront(spec, rep *frontOut) *frontOut {
	ck := spec.ckpts[rep.converged]
	out := &frontOut{
		frontLog: frontLog{
			events: append(rep.events, spec.events[ck.nEvents:]...),
			wbs:    append(rep.wbs, spec.wbs[ck.nWBs:]...),
		},
		instrs:  spec.instrs, // the generator is exact in both runs
		endHier: spec.endHier,
	}
	for l := 0; l < 3; l++ {
		out.stats[l] = csAdd(rep.stats[l], csSub(spec.stats[l], ck.stats[l]))
	}
	return out
}

// ---------------------------------------------------------------------------
// Counter fold

// foldCounters replays the exact writeback stream through the
// split-counter state machine, snapshotting the counter map at each
// epoch boundary. Increment-per-writeback is the engine's exact rule
// (engine.increment), so each epoch's engine, seeded with its
// snapshot, re-encrypts pages at exactly the writebacks the
// sequential run would. SGX-organization counters never overflow and
// are skipped entirely.
func foldCounters(ctx context.Context, pr *parRun, exact []*frontOut) ([]map[uint64]*ctr.PIBlock, error) {
	seeds := make([]map[uint64]*ctr.PIBlock, len(exact))
	if !pr.secure || pr.layout.Organization() == memlayout.SGX {
		return seeds, nil
	}
	cur := make(map[uint64]*ctr.PIBlock)
	for i, eo := range exact {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seeds[i] = engine.CloneCounters(cur)
		for _, wb := range eo.wbs {
			blkAddr := memlayout.BlockOf(wb)
			cAddr := pr.layout.CounterAddr(blkAddr)
			blk := cur[cAddr]
			if blk == nil {
				blk = &ctr.PIBlock{}
				cur[cAddr] = blk
			}
			blk.Increment(pr.layout.CounterSlot(blkAddr))
		}
	}
	return seeds, nil
}

// ---------------------------------------------------------------------------
// Back pass: metadata cache + secure engine + DRAM timing

// backStats are the mergeable integer counters one back epoch
// produces. dram.EnergyPJ stays zero here; the merged totals derive
// it once (dram.Config.EnergyOf).
type backStats struct {
	eng   engine.Stats
	dram  dram.Stats
	metaK [4]metacache.KindStats
	metaL [16]metacache.KindStats
}

type backCkpt struct {
	event  int
	fp     uint64
	cycles uint64
	st     backStats
}

type backOut struct {
	cycles       uint64 // the epoch's cycle advance (its own frame starts at 0)
	st           backStats
	ckpts        []backCkpt
	endMeta      *metacache.MetaCache
	endMem       *dram.Memory
	endHashReady uint64
	endFrame     uint64 // cycle count the end state is expressed in
	converged    int
	ranEvents    uint64
}

// backStart is the state one back epoch begins from.
type backStart struct {
	meta      *metacache.MetaCache
	mem       *dram.Memory
	counters  map[uint64]*ctr.PIBlock
	hashReady uint64
}

// backStartCold builds the speculative (and, for epoch 0, the true)
// cold start: empty caches, idle banks, and the epoch's exact counter
// seed.
func (pr *parRun) backStartCold(seed map[uint64]*ctr.PIBlock) (backStart, error) {
	var st backStart
	var err error
	if pr.secure && pr.cfg.Meta != nil {
		st.meta, err = metacache.New(*pr.cfg.Meta)
		if err != nil {
			return st, err
		}
	}
	st.mem, err = dram.New(pr.cfg.DRAM)
	if err != nil {
		return st, err
	}
	st.counters = engine.CloneCounters(seed)
	return st, nil
}

// backFP digests everything that can influence the epoch's remaining
// behavior, in a cycle-relative basis: bank open rows and remaining
// busy time, metadata-cache contents, and the HMAC engine's remaining
// backlog. Counters are deliberately excluded — speculative and
// replay runs are seeded with the same exact snapshot and consume the
// same event stream, so their counter state is identical by
// construction.
func (pr *parRun) backFP(st backStart, eng *engine.Engine, cycles uint64) uint64 {
	h := st.mem.Fingerprint(cycles)
	if st.meta != nil {
		h ^= rotl64(st.meta.Fingerprint(), 17)
	}
	if eng != nil {
		h ^= rotl64(fpMix64(satSub(eng.HashReadyAt(), cycles)), 33)
	}
	return h
}

// runBack consumes one epoch's exact event log through the metadata
// cache, engine, and DRAM model. Mode selection mirrors runFront:
// spec == nil records checkpoints, otherwise the run compares and
// stops at the first fingerprint match.
func (pr *parRun) runBack(ctx context.Context, st backStart, ep *frontOut, spec []backCkpt) (*backOut, error) {
	out := &backOut{converged: -1}
	var eng *engine.Engine
	var err error
	if pr.secure {
		eng, err = engine.New(engine.Config{
			Layout:            pr.layout,
			Meta:              st.meta,
			DRAM:              st.mem,
			Speculation:       pr.cfg.Speculation,
			SpeculationWindow: pr.cfg.SpeculationWindow,
			SeedCounters:      st.counters,
			SeedHashReady:     st.hashReady,
		})
		if err != nil {
			return nil, err
		}
	}
	collect := func(bs *backStats) {
		if eng != nil {
			bs.eng = eng.Stats()
		}
		bs.dram = st.mem.Stats()
		bs.dram.EnergyPJ = 0
		if st.meta != nil {
			for _, k := range memlayout.MetaKinds {
				bs.metaK[k] = st.meta.KindStats(k)
			}
			for l := 0; l < 16; l++ {
				bs.metaL[l] = st.meta.LevelStats(l)
			}
		}
	}
	var (
		cycles     uint64
		sinceCheck uint64
		wbIdx      int
		nextCk     = backCkptBase
		specIdx    int
	)
	for ei := range ep.events {
		e := &ep.events[ei]
		sinceCheck += uint64(e.instr)
		if sinceCheck >= cancelCheckInterval {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := faultStep.Hit(); err != nil {
				return nil, err
			}
		}
		n := int(e.nWB)
		cycles = replay(eng, st.mem, cycles, e, ep.wbs[wbIdx:wbIdx+n])
		wbIdx += n
		done := ei + 1
		if spec == nil {
			if done == nextCk && done < len(ep.events) {
				ck := backCkpt{event: done, fp: pr.backFP(st, eng, cycles), cycles: cycles}
				collect(&ck.st)
				out.ckpts = append(out.ckpts, ck)
				nextCk *= 2
			}
		} else if specIdx < len(spec) && done == spec[specIdx].event {
			if pr.backFP(st, eng, cycles) == spec[specIdx].fp {
				out.converged = specIdx
				out.cycles = cycles
				collect(&out.st)
				out.ranEvents = uint64(done)
				return out, nil
			}
			specIdx++
		}
	}
	out.cycles = cycles
	collect(&out.st)
	out.endMeta = st.meta
	out.endMem = st.mem
	if eng != nil {
		out.endHashReady = eng.HashReadyAt()
	}
	out.endFrame = cycles
	out.ranEvents = uint64(len(ep.events))
	return out, nil
}

// spliceBack combines a replay prefix with a speculative suffix. Both
// runs consumed the same exact event stream, so only timing and
// counters are spliced: the suffix's cycle advance and stat deltas
// transplant directly (the timing model is translation-invariant),
// and the carry-out state comes from the speculative run in its own
// frame.
func spliceBack(spec, rep *backOut) *backOut {
	ck := spec.ckpts[rep.converged]
	return &backOut{
		cycles:       rep.cycles + (spec.cycles - ck.cycles),
		st:           bsAdd(rep.st, bsSub(spec.st, ck.st)),
		endMeta:      spec.endMeta,
		endMem:       spec.endMem,
		endHashReady: spec.endHashReady,
		endFrame:     spec.endFrame,
	}
}

// ---------------------------------------------------------------------------
// Orchestration

// phaseRun fans spec work for every epoch across `shards` workers and
// reconciles results on the calling goroutine in epoch order, so
// replays of early epochs overlap speculation of later ones. finalize
// is called per epoch with the exact result index; any error cancels
// the phase, and the function does not return until every worker has
// exited (the cancellation teardown the context tests rely on).
func phaseRun(ctx context.Context, shards, n int,
	specOne func(ctx context.Context, i int) error,
	reconcileOne func(ctx context.Context, i int) error,
) error {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	defer wg.Wait()
	errs := make([]error, n)
	done := make([]chan struct{}, n)
	sem := make(chan struct{}, shards)
	for i := 0; i < n; i++ {
		done[i] = make(chan struct{})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(done[i])
			select {
			case sem <- struct{}{}:
			case <-pctx.Done():
				errs[i] = pctx.Err()
				return
			}
			defer func() { <-sem }()
			errs[i] = specOne(pctx, i)
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done[i]
		if errs[i] != nil {
			cancel()
			return errs[i]
		}
		if err := reconcileOne(pctx, i); err != nil {
			cancel()
			return err
		}
	}
	return nil
}

// runEpochParallel is the sharded twin of the sequential loop in
// RunContext. It returns ok == false (without error) when the
// configuration turns out not to be safely shardable — an uncloneable
// hierarchy policy or metadata cache, or a run too small to split —
// in which case the caller falls back to the sequential path.
func runEpochParallel(ctx context.Context, cfg Config, shards int) (res *Result, ok bool, err error) {
	endRun := obs.Span(ctx, "run", "benchmark", cfg.Benchmark, "shards", shards)
	endSetup := obs.Span(ctx, "setup", "benchmark", cfg.Benchmark)

	pr := &parRun{
		cfg:     &cfg,
		secure:  cfg.Secure,
		l2Lat:   cfg.L2HitLatency,
		l3Lat:   cfg.L3HitLatency,
		baseCPI: cfg.BaseCPI,
		unitCPI: cfg.BaseCPI == 1.0,
	}

	// True cold-start state; also the pre-flight cloneability probe.
	hier0, err := hierarchy.New(cfg.Hierarchy)
	if err != nil {
		return nil, true, err
	}
	if _, cok := hier0.Clone(); !cok {
		return nil, false, nil
	}
	metaSize := 0
	if cfg.Secure {
		footprint := (cfg.Workload.Footprint() + memlayout.PageSize - 1) &^ (memlayout.PageSize - 1)
		pr.layout, err = memlayout.New(cfg.Org, footprint)
		if err != nil {
			return nil, true, err
		}
		if cfg.Meta != nil {
			probe, err := metacache.New(*cfg.Meta)
			if err != nil {
				return nil, true, err
			}
			if !probe.Cloneable() {
				return nil, false, nil
			}
			metaSize = probe.Size()
		}
	}

	plans, err := planEpochs(ctx, &cfg, shards)
	if err != nil {
		return nil, true, fmt.Errorf("sim: %s: %w", cfg.Benchmark, err)
	}
	if plans == nil {
		return nil, false, nil
	}

	prog := cfg.Progress
	if prog != nil {
		prog.EnsureTotal(cfg.Warmup + cfg.Instructions)
	}
	activeShards.Add(int64(shards))
	defer activeShards.Add(int64(-shards))

	sh := &ShardStats{Shards: shards, Epochs: len(plans)}
	setupTime := endSetup()

	// Front phase (the "warmup" wall-clock bucket: everything up to
	// the point the sequential path would have warm caches is spent
	// here and in the scan above).
	endFront := obs.Span(ctx, "warmup", "benchmark", cfg.Benchmark)
	specF := make([]*frontOut, len(plans))
	exactF := make([]*frontOut, len(plans))
	err = phaseRun(ctx, shards, len(plans),
		func(ctx context.Context, i int) error {
			if err := faultEpoch.Hit(); err != nil {
				return err
			}
			end := obs.Span(ctx, "epoch", "phase", "front", "index", i, "benchmark", cfg.Benchmark)
			defer end()
			h := hier0
			if i > 0 {
				var herr error
				h, herr = hierarchy.New(cfg.Hierarchy)
				if herr != nil {
					return herr
				}
			}
			fo, ferr := pr.runFront(ctx, cloneGen(plans[i].gen), h, plans[i].accesses, nil)
			specF[i] = fo
			return ferr
		},
		func(ctx context.Context, i int) error {
			if i == 0 {
				exactF[0] = specF[0] // the cold start is the true start
			} else {
				base, cok := exactF[i-1].endHier.Clone()
				if !cok {
					return fmt.Errorf("sim: internal: hierarchy became uncloneable mid-run")
				}
				rep, rerr := pr.runFront(ctx, cloneGen(plans[i].gen), base, plans[i].accesses, specF[i].ckpts)
				if rerr != nil {
					return rerr
				}
				sh.FrontReplayedAccesses += rep.ranAccesses
				if rep.converged >= 0 {
					sh.FrontSplices++
					exactF[i] = spliceFront(specF[i], rep)
				} else {
					sh.FrontFullReplays++
					exactF[i] = rep
				}
				specF[i] = nil
				exactF[i-1].endHier = nil // the chain has moved past it
			}
			if prog != nil {
				prog.Add(exactF[i].instrs)
			}
			return nil
		})
	frontTime := endFront()
	if err != nil {
		return nil, true, fmt.Errorf("sim: %s: %w", cfg.Benchmark, err)
	}
	exactF[len(plans)-1].endHier = nil

	// Fold + back phase (the "measure" bucket: this is where cycles
	// and memory-system statistics are produced).
	endBack := obs.Span(ctx, "measure", "benchmark", cfg.Benchmark)
	seeds, err := foldCounters(ctx, pr, exactF)
	if err != nil {
		endBack()
		return nil, true, fmt.Errorf("sim: %s: %w", cfg.Benchmark, err)
	}
	specB := make([]*backOut, len(plans))
	exactB := make([]*backOut, len(plans))
	err = phaseRun(ctx, shards, len(plans),
		func(ctx context.Context, i int) error {
			end := obs.Span(ctx, "epoch", "phase", "back", "index", i, "benchmark", cfg.Benchmark)
			defer end()
			st, serr := pr.backStartCold(seeds[i])
			if serr != nil {
				return serr
			}
			bo, berr := pr.runBack(ctx, st, exactF[i], nil)
			specB[i] = bo
			return berr
		},
		func(ctx context.Context, i int) error {
			if i == 0 {
				exactB[0] = specB[0]
			} else {
				prev := exactB[i-1]
				var st backStart
				if prev.endMeta != nil {
					m, cok := prev.endMeta.Clone()
					if !cok {
						return fmt.Errorf("sim: internal: metadata cache became uncloneable mid-run")
					}
					st.meta = m
				}
				st.mem = prev.endMem.CloneRebased(prev.endFrame)
				st.counters = engine.CloneCounters(seeds[i])
				st.hashReady = satSub(prev.endHashReady, prev.endFrame)
				rep, rerr := pr.runBack(ctx, st, exactF[i], specB[i].ckpts)
				if rerr != nil {
					return rerr
				}
				sh.BackReplayedEvents += rep.ranEvents
				if rep.converged >= 0 {
					sh.BackSplices++
					exactB[i] = spliceBack(specB[i], rep)
				} else {
					sh.BackFullReplays++
					exactB[i] = rep
				}
				specB[i] = nil
				// Free the predecessor's carried state.
				prev.endMeta, prev.endMem = nil, nil
			}
			return nil
		})
	backTime := endBack()
	if err != nil {
		return nil, true, fmt.Errorf("sim: %s: %w", cfg.Benchmark, err)
	}

	// Deterministic merge: integer sums in fixed epoch order over the
	// measured epochs, floats derived once from the totals.
	t := runTotals{secure: pr.secure, hasMeta: pr.secure && cfg.Meta != nil, metaSize: metaSize}
	for i := range plans {
		if plans[i].warm {
			continue
		}
		t.measured += exactF[i].instrs
		t.cycles += exactB[i].cycles
		for l := 0; l < 3; l++ {
			t.hier[l] = csAdd(t.hier[l], exactF[i].stats[l])
		}
		t.dramStats = drAdd(t.dramStats, exactB[i].st.dram)
		t.engStats = engAdd(t.engStats, exactB[i].st.eng)
		for k := range t.metaKind {
			t.metaKind[k] = ksAdd(t.metaKind[k], exactB[i].st.metaK[k])
		}
		for l := range t.metaLevel {
			t.metaLevel[l] = ksAdd(t.metaLevel[l], exactB[i].st.metaL[l])
		}
	}
	t.dramStats.EnergyPJ = cfg.DRAM.EnergyOf(t.dramStats)
	if t.hasMeta {
		for _, k := range memlayout.MetaKinds {
			t.metaTotal = ksAdd(t.metaTotal, t.metaKind[k])
		}
	}

	res = buildResult(cfg, t)
	res.Sharding = sh
	res.Timing = PhaseTiming{
		Setup:   setupTime,
		Warmup:  frontTime,
		Measure: backTime,
		Total:   endRun(),
	}
	obs.From(ctx).Debug("run done",
		"benchmark", cfg.Benchmark,
		"instructions", t.measured,
		"ipc", res.IPC,
		"shards", shards,
		"epochs", sh.Epochs,
		"front_full_replays", sh.FrontFullReplays,
		"back_full_replays", sh.BackFullReplays,
		"wall", res.Timing.Total)
	return res, true, nil
}

// ---------------------------------------------------------------------------
// Fieldwise stat arithmetic. Addition in fixed epoch order over
// integers is associative, which is the whole reason the merged
// result is bit-identical to the sequential one.

func csAdd(a, b cache.Stats) cache.Stats {
	a.Accesses += b.Accesses
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.PartialMiss += b.PartialMiss
	a.Inserts += b.Inserts
	a.Evictions += b.Evictions
	a.DirtyEvicts += b.DirtyEvicts
	return a
}

func csSub(a, b cache.Stats) cache.Stats {
	a.Accesses -= b.Accesses
	a.Hits -= b.Hits
	a.Misses -= b.Misses
	a.PartialMiss -= b.PartialMiss
	a.Inserts -= b.Inserts
	a.Evictions -= b.Evictions
	a.DirtyEvicts -= b.DirtyEvicts
	return a
}

func ksAdd(a, b metacache.KindStats) metacache.KindStats {
	a.Accesses += b.Accesses
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Bypassed += b.Bypassed
	a.PartialMiss += b.PartialMiss
	return a
}

func ksSub(a, b metacache.KindStats) metacache.KindStats {
	a.Accesses -= b.Accesses
	a.Hits -= b.Hits
	a.Misses -= b.Misses
	a.Bypassed -= b.Bypassed
	a.PartialMiss -= b.PartialMiss
	return a
}

func engAdd(a, b engine.Stats) engine.Stats {
	a.Reads += b.Reads
	a.Writebacks += b.Writebacks
	a.Mem.DataReads += b.Mem.DataReads
	a.Mem.DataWrites += b.Mem.DataWrites
	a.Mem.CounterReads += b.Mem.CounterReads
	a.Mem.CounterWrites += b.Mem.CounterWrites
	a.Mem.HashReads += b.Mem.HashReads
	a.Mem.HashWrites += b.Mem.HashWrites
	a.Mem.TreeReads += b.Mem.TreeReads
	a.Mem.TreeWrites += b.Mem.TreeWrites
	a.PageReencryptions += b.PageReencryptions
	a.TreeWalkLevels += b.TreeWalkLevels
	a.SpecWindowStalls += b.SpecWindowStalls
	return a
}

func engSub(a, b engine.Stats) engine.Stats {
	a.Reads -= b.Reads
	a.Writebacks -= b.Writebacks
	a.Mem.DataReads -= b.Mem.DataReads
	a.Mem.DataWrites -= b.Mem.DataWrites
	a.Mem.CounterReads -= b.Mem.CounterReads
	a.Mem.CounterWrites -= b.Mem.CounterWrites
	a.Mem.HashReads -= b.Mem.HashReads
	a.Mem.HashWrites -= b.Mem.HashWrites
	a.Mem.TreeReads -= b.Mem.TreeReads
	a.Mem.TreeWrites -= b.Mem.TreeWrites
	a.PageReencryptions -= b.PageReencryptions
	a.TreeWalkLevels -= b.TreeWalkLevels
	a.SpecWindowStalls -= b.SpecWindowStalls
	return a
}

func drAdd(a, b dram.Stats) dram.Stats {
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.RowHits += b.RowHits
	a.RowMisses += b.RowMisses
	a.BusyCycles += b.BusyCycles
	return a
}

func drSub(a, b dram.Stats) dram.Stats {
	a.Reads -= b.Reads
	a.Writes -= b.Writes
	a.RowHits -= b.RowHits
	a.RowMisses -= b.RowMisses
	a.BusyCycles -= b.BusyCycles
	return a
}

func bsAdd(a, b backStats) backStats {
	a.eng = engAdd(a.eng, b.eng)
	a.dram = drAdd(a.dram, b.dram)
	for k := range a.metaK {
		a.metaK[k] = ksAdd(a.metaK[k], b.metaK[k])
	}
	for l := range a.metaL {
		a.metaL[l] = ksAdd(a.metaL[l], b.metaL[l])
	}
	return a
}

func bsSub(a, b backStats) backStats {
	a.eng = engSub(a.eng, b.eng)
	a.dram = drSub(a.dram, b.dram)
	for k := range a.metaK {
		a.metaK[k] = ksSub(a.metaK[k], b.metaK[k])
	}
	for l := range a.metaL {
		a.metaL[l] = ksSub(a.metaL[l], b.metaL[l])
	}
	return a
}

func satSub(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return 0
}

func rotl64(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// fpMix64 is the SplitMix64 output finalizer, the digest primitive
// shared with the cache and DRAM fingerprints.
func fpMix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}
