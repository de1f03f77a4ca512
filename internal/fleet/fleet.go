// Package fleet fans sweep grid points out across a set of mapsd
// workers. A Coordinator owns the dispatch loop: each dispatch is a
// get-or-compute through the result store and the local pool's
// in-flight job table; the loop bounds in-flight points per worker,
// steals work from slow workers, excludes workers whose health probe
// fails, re-issues straggling points past a deadline, and resolves
// duplicate completions (the price of stealing) exactly once. Both the local jobs pool (PoolRunner) and remote daemons
// (mapsim.NewWorkerRunner, in the root package) plug in through the
// Runner interface, so a fleet of one local worker behaves
// byte-identically to the single-node sweep engine.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"github.com/maps-sim/mapsim/internal/faults"
	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// Fault points the coordinator exposes to the chaos suite: dispatch
// fires just before a point is handed to a worker (an injected error
// is treated as a worker failure, so the point re-issues elsewhere);
// health fires inside every health probe (an injected error makes the
// probed worker look unhealthy).
const (
	FaultDispatch = "fleet.dispatch"
	FaultHealth   = "fleet.health"
)

var (
	faultDispatch = faults.P(FaultDispatch)
	faultHealth   = faults.P(FaultHealth)
)

// Runner executes one grid point somewhere — on the local jobs pool
// or on a remote daemon. Implementations must be safe for concurrent
// Run calls up to the Worker's MaxInflight bound.
type Runner interface {
	// Name identifies the worker in point attribution, metrics, and
	// logs; names must be unique within one Coordinator.
	Name() string
	// Run executes the point and returns its result; noCache forwards
	// the sweep's forced-rerun flag (a remote worker must then skip
	// its own result store's lookup). Infrastructure errors (transport
	// failures, worker overload, worker death) must be wrapped with
	// WorkerFailure so the coordinator re-issues the point elsewhere;
	// plain errors mean the simulation itself failed and fail the
	// whole sweep fast.
	Run(ctx context.Context, p sweep.Point, timeout time.Duration, noCache bool) (*sim.Result, error)
	// Healthy probes the worker (e.g. GET /readyz); an unhealthy
	// worker is excluded from dispatch until a later probe passes.
	Healthy(ctx context.Context) bool
}

// Cache is the result-store surface the coordinator reads and fills:
// tier-agnostic Get/Put keyed by content address (internal/store,
// whose Get may consult disk and peers under ctx, satisfies it).
type Cache interface {
	// Get returns the stored value for key; ctx bounds any remote
	// tier lookups.
	Get(ctx context.Context, key results.Key) (any, bool)
	// Put stores value under key.
	Put(key results.Key, value any)
}

// Worker pairs a Runner with its dispatch bound.
type Worker struct {
	// Runner executes points.
	Runner Runner
	// MaxInflight bounds concurrently dispatched points on this
	// worker (<= 0 means 1).
	MaxInflight int
}

// workerFailure marks an infrastructure error — the worker, not the
// simulation, failed — so the coordinator re-issues instead of
// failing the sweep.
type workerFailure struct{ err error }

func (e *workerFailure) Error() string { return e.err.Error() }
func (e *workerFailure) Unwrap() error { return e.err }

// WorkerFailure wraps err as a worker failure: the coordinator will
// re-issue the point to another worker (up to the attempt cap)
// instead of failing the sweep. A nil err returns nil.
func WorkerFailure(err error) error {
	if err == nil {
		return nil
	}
	return &workerFailure{err: err}
}

// IsWorkerFailure reports whether any error in err's chain was marked
// by WorkerFailure.
func IsWorkerFailure(err error) bool {
	var wf *workerFailure
	return errors.As(err, &wf)
}

// Coordinator fans a sweep's grid points out over Workers. Configure
// the fields before the first Run; a Coordinator is safe for
// concurrent Run calls (each run keeps private state), and Metrics
// accumulates across runs.
type Coordinator struct {
	// Workers is the fleet; at least one is required.
	Workers []Worker
	// Cache, when set, serves points it holds (by Point.Key) and stores
	// remote workers' results; the local PoolRunner's job stores its own.
	Cache Cache
	// Completed pre-marks grid indices already finished by an earlier
	// run of the same sweep (journal recovery): dispatch consults
	// Cache for them even when the spec sets NoCache, so a resumed
	// sweep re-serves them from the store instead of re-simulating. A
	// pre-marked point the store no longer holds falls back to a
	// normal dispatch. Set this only on a Coordinator built for one
	// recovered sweep.
	Completed map[int]bool
	// OnPoint, when set, observes every completed point in completion
	// order; calls are serialized.
	OnPoint func(sweep.PointResult)
	// Timeout is the per-point deadline passed to Runner.Run (0 = none).
	Timeout time.Duration
	// StragglerAfter re-issues a point still in flight after this long
	// to another worker (0 disables straggler re-issue; rescue of
	// stranded points stays on).
	StragglerAfter time.Duration
	// HealthBackoff is how long an unhealthy worker sits out before
	// its next probe (default 250ms).
	HealthBackoff time.Duration
	// MaxAttempts caps issues per point before a worker failure
	// becomes fatal (default max(3, 2×len(Workers))).
	MaxAttempts int
	// Metrics, when set, accumulates per-worker dispatch counters.
	Metrics *Metrics
	// Logger, when set, records steals, re-issues, worker failures,
	// and health transitions.
	Logger *slog.Logger
}

// task is one grid point's dispatch state, guarded by runState.mu.
type task struct {
	point      sweep.Point
	key        results.Key
	done       bool
	attempts   int       // times issued to a worker
	inflight   int       // workers currently running it (>1 after a steal)
	queued     int       // copies sitting in the queue
	pending    int       // copies picked up but not yet claimed (health probe in progress)
	lastIssue  time.Time // most recent dispatch, for straggler detection
	lastWorker string    // most recent worker, for re-issue attribution
}

// runState is one Run's private coordination state.
type runState struct {
	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	tasks       []*task
	queue       chan *task
	res         *sweep.Result
	onPoint     func(sweep.PointResult)
	remaining   int
	maxAttempts int
	noCache     bool
	pool        *jobs.Pool // the local PoolRunner's, for coalescing; nil without one
	firstErr    error
	finished    bool
	healthy     map[string]bool
}

// fail records the sweep's first error and cancels the rest; callers
// hold mu.
func (r *runState) fail(err error) {
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.cancel()
}

// deliver records a completed point and notifies the observer;
// callers hold mu, which serializes the observer stream.
func (r *runState) deliver(pr sweep.PointResult) {
	r.res.Points[pr.Index] = pr
	r.res.Done++
	if pr.Cached {
		r.res.Deduped++
	} else {
		r.res.Fronts++ // fleet points always run fused
	}
	if r.onPoint != nil {
		r.onPoint(pr)
	}
}

// resend queues another copy of t without blocking; callers hold mu.
// A full queue is not fatal — the monitor's rescue pass retries.
func (r *runState) resend(t *task) {
	if t.done {
		return
	}
	select {
	case r.queue <- t:
		t.queued++
	default:
	}
}

// Run expands the spec and executes the grid across the fleet,
// failing fast on simulation errors and re-issuing points whose
// worker failed. The returned Result orders points exactly as Expand
// did and aggregates identically to the single-node engine.
func (c *Coordinator) Run(ctx context.Context, spec sweep.Spec) (*sweep.Result, error) {
	if len(c.Workers) == 0 {
		return nil, errors.New("fleet: no workers registered")
	}
	points, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &sweep.Result{
		Points: make([]sweep.PointResult, len(points)),
		Total:  len(points),
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &runState{
		ctx:         rctx,
		cancel:      cancel,
		res:         res,
		onPoint:     c.OnPoint,
		maxAttempts: c.maxAttempts(),
		noCache:     spec.NoCache,
		healthy:     make(map[string]bool),
	}
	for _, w := range c.Workers {
		if pr, ok := w.Runner.(*PoolRunner); ok {
			r.pool = pr.Pool
		}
	}

	tasks := make([]*task, len(points))
	for i, p := range points {
		key, _ := p.Key() // "" if unkeyable: never looked up, joined or stored
		tasks[i] = &task{point: p, key: key}
	}
	r.tasks = tasks
	r.remaining = len(tasks)

	// Queue capacity covers every possible copy: each task holds at
	// most maxAttempts+1 queued copies at once (unhealthy hand-backs
	// are net-zero), so sends only ever block on a bug.
	r.queue = make(chan *task, len(tasks)*(r.maxAttempts+1)+len(c.Workers))
	for _, t := range tasks {
		r.queue <- t
		t.queued = 1
	}

	var wg sync.WaitGroup
	for _, w := range c.Workers {
		n := w.MaxInflight
		if n <= 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(w Worker) {
				defer wg.Done()
				c.slot(rctx, r, w)
			}(w)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.monitor(rctx, r)
	}()
	wg.Wait()

	r.mu.Lock()
	firstErr := r.firstErr
	finished := r.finished
	r.mu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	if !finished {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("fleet: sweep stopped before completion")
	}
	res.Wall = time.Since(start)
	res.Aggregate()
	return res, nil
}

// slot is one in-flight dispatch lane on worker w: pull a point,
// gate on health, run it, hand the outcome to complete.
func (c *Coordinator) slot(rctx context.Context, r *runState, w Worker) {
	name := w.Runner.Name()
	for {
		select {
		case <-rctx.Done():
			return
		case t := <-r.queue:
			r.mu.Lock()
			t.queued--
			if t.done || r.firstErr != nil {
				r.mu.Unlock()
				continue
			}
			// pending marks the probe window: the point is neither
			// queued nor in flight, but it is NOT stranded — without
			// this, a monitor tick during a slow probe would resend it
			// and the sweep would simulate it twice.
			t.pending++
			r.mu.Unlock()

			if !c.probe(r, w) {
				// Hand the point back and sit out a backoff.
				r.mu.Lock()
				t.pending--
				r.resend(t)
				r.mu.Unlock()
				select {
				case <-rctx.Done():
					return
				case <-time.After(c.healthBackoff()):
				}
				continue
			}

			r.mu.Lock()
			t.pending--
			if t.done || r.firstErr != nil {
				r.mu.Unlock()
				continue
			}
			steal := t.inflight > 0
			t.inflight++
			t.attempts++
			t.lastIssue = time.Now()
			t.lastWorker = name
			r.mu.Unlock()
			c.Metrics.dispatch(name, steal)
			if steal && c.Logger != nil {
				c.Logger.Debug("fleet point stolen",
					"worker", name, "point", t.point.Index)
			}

			res, src, err := c.dispatch(rctx, r, w, t, steal)
			c.complete(r, t, w, res, src, err)
		}
	}
}

// source says how a dispatch obtained its point's result.
type source int

const (
	computed source = iota // by the worker; the coordinator stores it
	stored                 // by the worker, and already in the store
	shared                 // from the store or a joined job: computed elsewhere
)

// dispatch is one get-or-compute of t's point on w: the store (forced
// for journal-recovered points even under NoCache), else the local
// pool's in-flight table — a keyed job for the local lane, Pool.Do for
// a remote one — so concurrent sweeps simulate a point once. A steal,
// which exists to run the point elsewhere, and NoCache skip both.
func (c *Coordinator) dispatch(ctx context.Context, r *runState, w Worker, t *task, steal bool) (*sim.Result, source, error) {
	if err := faultDispatch.Hit(); err != nil {
		return nil, computed, WorkerFailure(fmt.Errorf("fleet: dispatch to %s: %w", w.Runner.Name(), err))
	}
	if !steal && c.Cache != nil && t.key != "" && (!r.noCache || c.Completed[t.point.Index]) {
		if v, ok := c.Cache.Get(ctx, t.key); ok {
			if res, ok := v.(*sim.Result); ok {
				return res, shared, nil
			}
		}
	}
	join := !steal && !r.noCache && t.key != ""
	var res *sim.Result
	var joined bool
	var err error
	if pr, ok := w.Runner.(*PoolRunner); ok {
		res, joined, err = pr.run(ctx, t.point, t.key, join, c.Timeout)
	} else if !join || r.pool == nil {
		res, err = w.Runner.Run(ctx, t.point, c.Timeout, r.noCache)
		return res, computed, err
	} else {
		var out any
		out, joined, err = r.pool.Do(ctx, string(t.key), func(ctx context.Context) (any, error) {
			res, err := w.Runner.Run(ctx, t.point, c.Timeout, r.noCache)
			if err == nil && c.Cache != nil {
				c.Cache.Put(t.key, res) // before the job leaves the table
			}
			return res, err
		}, c.Timeout)
		res, _ = out.(*sim.Result)
	}
	if joined {
		return res, shared, err
	}
	return res, stored, err
}

// probe checks w's health (through the fleet.health fault point) and
// records healthy→unhealthy transitions.
func (c *Coordinator) probe(r *runState, w Worker) bool {
	name := w.Runner.Name()
	ok := faultHealth.Hit() == nil && w.Runner.Healthy(r.ctx)
	r.mu.Lock()
	was, seen := r.healthy[name]
	r.healthy[name] = ok
	r.mu.Unlock()
	if !ok && (was || !seen) {
		c.Metrics.unhealthy(name)
		if c.Logger != nil {
			c.Logger.Warn("fleet worker unhealthy", "worker", name)
		}
	}
	return ok
}

// complete resolves one dispatch outcome exactly once: the first
// successful completion wins, duplicates from steals are discarded,
// worker failures re-issue up to the attempt cap, and simulation
// errors fail the sweep fast. A shared point is delivered as Cached,
// with no worker: it was computed elsewhere.
func (c *Coordinator) complete(r *runState, t *task, w Worker, res *sim.Result, src source, err error) {
	worker := w.Runner.Name()
	c.Metrics.finish(worker)
	r.mu.Lock()
	defer r.mu.Unlock()
	t.inflight--
	if t.done || r.firstErr != nil {
		return // duplicate from a steal, or the sweep already failed
	}
	if err != nil {
		if r.ctx.Err() != nil {
			return // cancellation victim, not a cause
		}
		if IsWorkerFailure(err) {
			c.Metrics.failure(worker)
			if c.Logger != nil {
				c.Logger.Warn("fleet worker failed point",
					"worker", worker, "point", t.point.Index,
					"attempt", t.attempts, "err", err)
			}
			if t.attempts >= r.maxAttempts {
				r.fail(fmt.Errorf("fleet: point %d (%s): gave up after %d attempts: %w",
					t.point.Index, t.point, t.attempts, err))
				return
			}
			r.resend(t)
			return
		}
		r.fail(fmt.Errorf("sweep: point %d (%s) on %s: %w", t.point.Index, t.point, worker, err))
		return
	}
	t.done = true
	if src == shared {
		r.deliver(sweep.PointResult{Point: t.point, Result: res, Cached: true})
	} else {
		if src == computed && c.Cache != nil && t.key != "" {
			c.Cache.Put(t.key, res)
		}
		r.deliver(sweep.PointResult{Point: t.point, Result: res, Worker: worker})
		c.Metrics.donePoint(worker)
	}
	r.remaining--
	if r.remaining == 0 {
		r.finished = true
		r.cancel()
	}
}

// monitor is the straggler/rescue loop: re-issue points in flight
// past StragglerAfter, and resend any point that is neither queued
// nor in flight (a resend lost to a momentarily full queue).
func (c *Coordinator) monitor(rctx context.Context, r *runState) {
	tick := 50 * time.Millisecond
	if c.StragglerAfter > 0 {
		if t := c.StragglerAfter / 4; t < tick {
			tick = t
			if tick < time.Millisecond {
				tick = time.Millisecond
			}
		}
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()
	for {
		select {
		case <-rctx.Done():
			return
		case <-tk.C:
		}
		now := time.Now()
		r.mu.Lock()
		for _, t := range r.tasks {
			if t.done {
				continue
			}
			if t.queued == 0 && t.inflight == 0 && t.pending == 0 {
				r.resend(t) // rescue a stranded point
				continue
			}
			if c.StragglerAfter > 0 && t.queued == 0 && t.pending == 0 && t.inflight > 0 &&
				t.attempts < r.maxAttempts && now.Sub(t.lastIssue) > c.StragglerAfter {
				r.resend(t)
				if t.queued > 0 {
					c.Metrics.reissue(t.lastWorker)
					if c.Logger != nil {
						c.Logger.Info("fleet straggler re-issued",
							"worker", t.lastWorker, "point", t.point.Index,
							"inflight", now.Sub(t.lastIssue))
					}
					t.lastIssue = now
				}
			}
		}
		r.mu.Unlock()
	}
}

// maxAttempts resolves the per-point attempt cap.
func (c *Coordinator) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	n := 2 * len(c.Workers)
	if n < 3 {
		n = 3
	}
	return n
}

// healthBackoff resolves the unhealthy-worker sit-out.
func (c *Coordinator) healthBackoff() time.Duration {
	if c.HealthBackoff > 0 {
		return c.HealthBackoff
	}
	return 250 * time.Millisecond
}
