package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
)

// PointResult pairs a grid point with its simulation result.
type PointResult struct {
	Point
	// Result is the point's simulation output; treat it as shared and
	// immutable when Cached.
	Result *sim.Result `json:"result"`
	// Cached marks a point served without simulating it for this
	// sweep: from the result store, or by joining a job already
	// computing the same key.
	Cached bool `json:"cached,omitempty"`
	// Worker names the fleet worker that executed the point; empty for
	// cached points and for single-node sweeps run through Engine.
	Worker string `json:"worker,omitempty"`
}

// Engine shards a sweep across a worker pool. Pool is required; the
// rest is optional.
type Engine struct {
	// Pool executes the points. The engine coordinates from its own
	// goroutines — never from inside a pool job, which could deadlock a
	// full pool against itself.
	Pool *jobs.Pool
	// OnPoint, when set, observes every completed point in completion
	// order, from multiple goroutines (the
	// engine serializes the calls). Server progress streaming hangs off
	// this.
	OnPoint func(PointResult)
	// Parallelism bounds in-flight submissions (default: the pool's
	// worker count).
	Parallelism int
	// Timeout is the per-point job deadline (0 = none).
	Timeout time.Duration
}

// Run expands the spec and executes the grid, failing fast: the first
// point error cancels every queued and in-flight sibling and is
// returned alone — victims of the cancellation never mask it. The
// returned Result orders points exactly as Expand did, whatever order
// they completed in.
//
// Uncached points that differ only in back-end fields (metadata
// cache, secure engine, DRAM; see sim.Config.FrontConfig) share one
// front: the group's generator and hierarchy run once as a pool job
// (sim.RunFront), then every point's back replays the recorded log as
// its own pool job (sim.RunBack). A point with no such sibling runs
// fused (sim.RunContext). At most Parallelism front logs are alive at
// once; each is released when its group's last back finishes.
func (e *Engine) Run(ctx context.Context, spec Spec) (*Result, error) {
	points, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{
		Points: make([]PointResult, len(points)),
		Total:  len(points),
	}

	parallelism := e.Parallelism
	if parallelism <= 0 {
		parallelism = e.Pool.Stats().Workers
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, parallelism)    // in-flight pool jobs
	fronts := make(chan struct{}, parallelism) // live front logs
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(p Point, err error) {
		mu.Lock()
		if firstErr == nil && ctx.Err() == nil { // victims never mask the cause
			firstErr = fmt.Errorf("sweep: point %d (%s): %w", p.Index, p, err)
		}
		mu.Unlock()
		cancel() // abandon the rest of the grid
	}
	simulated := func(t task, r *sim.Result) {
		mu.Lock()
		res.Points[t.point.Index] = PointResult{Point: t.point, Result: r}
		res.Done++
		if e.OnPoint != nil {
			// Serialized under mu so observers see a consistent stream.
			e.OnPoint(res.Points[t.point.Index])
		}
		mu.Unlock()
	}
	countFront := func() {
		mu.Lock()
		res.Fronts++
		mu.Unlock()
	}
	// spawn runs job on its own goroutine once an in-flight slot is
	// free, unless a sibling has already failed.
	spawn := func(wg *sync.WaitGroup, job func()) {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return // a sibling already failed; don't start
			}
			job()
		}()
	}

	todo := make([]task, len(points))
	for i, p := range points {
		todo[i] = task{point: p}
	}
	for _, group := range groupByFront(todo) {
		if len(group) == 1 {
			t := group[0]
			spawn(&wg, func() {
				r, err := e.runPoint(ctx, t.point)
				if err != nil {
					fail(t.point, err)
					return
				}
				countFront()
				simulated(t, r)
			})
			continue
		}
		fronts <- struct{}{}
		wg.Add(1)
		go func(group []task) {
			defer wg.Done()
			defer func() { <-fronts }()
			var front *sim.Front
			var steps sync.WaitGroup
			spawn(&steps, func() {
				f, err := e.runFront(ctx, group[0].point)
				if err != nil {
					fail(group[0].point, fmt.Errorf("front: %w", err))
					return
				}
				countFront()
				front = f
			})
			steps.Wait()
			if front == nil {
				return
			}
			for _, t := range group {
				t := t
				spawn(&steps, func() {
					r, err := e.runBack(ctx, t.point, front)
					if err != nil {
						fail(t.point, err)
						return
					}
					simulated(t, r)
				})
			}
			steps.Wait()
		}(group)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Wall = time.Since(start)
	res.Aggregate()
	return res, nil
}

// task is one point the engine must simulate.
type task struct {
	point Point
}

// groupByFront partitions tasks by front key (results.FrontKeyFor),
// groups ordered by their first member and members in grid order. A
// point whose front key cannot be computed stays alone.
func groupByFront(tasks []task) [][]task {
	var groups [][]task
	index := make(map[results.Key]int)
	for _, t := range tasks {
		fk, err := results.FrontKeyFor(t.point.Config)
		if err != nil {
			groups = append(groups, []task{t})
			continue
		}
		if i, ok := index[fk]; ok {
			groups[i] = append(groups[i], t)
			continue
		}
		index[fk] = len(groups)
		groups = append(groups, []task{t})
	}
	return groups
}

// CacheNames maps a point's normalized policy/partition names to the
// form results.PointKeyFor wants: empty for the defaults, so default
// points share cache entries with plain run jobs. Point.Key applies
// it, so one grid point has one content address everywhere in the
// fleet.
func CacheNames(p Point) (string, string) {
	pol, part := p.Policy, p.Partition
	if pol == DefaultPolicy {
		pol = ""
	}
	if part == DefaultPartition {
		part = ""
	}
	return pol, part
}

// Key is the point's content address in the result store and the
// in-flight job table: its config hashed with the CacheNames-normalized
// policy and partition.
func (p Point) Key() (results.Key, error) {
	pol, part := CacheNames(p)
	return results.PointKeyFor(p.Config, pol, part)
}

// Instantiate materializes a point's runnable sim.Config: fresh
// replacement-policy and partition-scheme instances (they are
// stateful, so concurrent points must never share them) over a copied
// Meta the simulator can't alias back into the spec. Every executor —
// the local engine, the fleet's pool runner, and a worker daemon
// running a dispatched point — builds its config through this one
// path, which is what keeps fleet results bit-identical to local ones.
func Instantiate(p Point) (sim.Config, error) {
	cfg := p.Config
	if cfg.Meta != nil && (p.Policy != "" && p.Policy != DefaultPolicy ||
		p.Partition != "" && p.Partition != DefaultPartition) {
		mc := *cfg.Meta
		pol, err := NewPolicy(p.Policy)
		if err != nil {
			return sim.Config{}, err
		}
		part, err := NewPartition(p.Partition)
		if err != nil {
			return sim.Config{}, err
		}
		mc.Policy = pol
		mc.Partition = part
		cfg.Meta = &mc
	} else if cfg.Meta != nil {
		mc := *cfg.Meta // never let the simulator share the spec's Meta
		cfg.Meta = &mc
	}
	return cfg, nil
}

// runPoint executes one point, fused, as a pool job via Instantiate.
func (e *Engine) runPoint(ctx context.Context, p Point) (*sim.Result, error) {
	return e.runJob(ctx, sim.RunContext, p)
}

// runJob runs one point's simulation as a pool job on its
// Instantiated config.
func (e *Engine) runJob(ctx context.Context, run func(context.Context, sim.Config) (*sim.Result, error), p Point) (*sim.Result, error) {
	out, err := e.Pool.Run(ctx, func(jctx context.Context) (any, error) {
		cfg, err := Instantiate(p)
		if err != nil {
			return nil, err
		}
		return run(jctx, cfg)
	}, e.Timeout)
	if err != nil {
		return nil, err
	}
	r, ok := out.(*sim.Result)
	if !ok {
		return nil, fmt.Errorf("sweep: point job returned %T, want *sim.Result", out)
	}
	return r, nil
}

// runFront records a group's shared front as a pool job. Only
// front-end fields matter, so the point's config needs no
// instantiation. The log leaves the job through a variable, not the
// job's result: the pool keeps finished jobs' results, and a log must
// be freed as soon as its group's last back finishes.
func (e *Engine) runFront(ctx context.Context, p Point) (*sim.Front, error) {
	var front *sim.Front
	_, err := e.Pool.Run(ctx, func(jctx context.Context) (any, error) {
		f, err := sim.RunFront(jctx, p.Config)
		front = f
		return nil, err
	}, e.Timeout)
	if err != nil {
		return nil, err
	}
	return front, nil
}

// runBack replays a shared front through one point's back end as a
// pool job via Instantiate.
func (e *Engine) runBack(ctx context.Context, p Point, front *sim.Front) (*sim.Result, error) {
	return e.runJob(ctx, func(jctx context.Context, cfg sim.Config) (*sim.Result, error) {
		return sim.RunBack(jctx, cfg, front)
	}, p)
}

// Run is the one-shot convenience: a transient pool sized to
// parallelism (default NumCPU), no observer.
func Run(ctx context.Context, spec Spec, parallelism int) (*Result, error) {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	pool := jobs.New(parallelism, parallelism)
	defer pool.Shutdown(context.Background())
	eng := &Engine{Pool: pool}
	return eng.Run(ctx, spec)
}

// contentLabel names a point's effective content policy even when the
// axis was absent (falling back to the materialized config).
func contentLabel(p Point) string {
	if p.Content != "" {
		return p.Content
	}
	if p.Config.Meta != nil {
		return p.Config.Meta.Content.String()
	}
	return metacache.AllTypes.String()
}
