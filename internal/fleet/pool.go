package fleet

import (
	"context"
	"fmt"
	"time"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// PoolRunner adapts the local jobs pool to the Runner interface, so
// the coordinator dispatches to this daemon's own workers exactly
// like to a remote one. Points run through sweep.Instantiate — the
// same materialization path as the single-node engine — so a
// one-worker fleet is byte-identical to Engine.Run.
type PoolRunner struct {
	// Pool executes the points; required.
	Pool *jobs.Pool
	// WorkerName is the attribution name (default "local").
	WorkerName string
	// OnRun, when set, observes every point this runner simulates,
	// with the simulation's wall time, from inside the pool job. The
	// daemon accounts simulated instructions and phase timings here.
	OnRun func(res *sim.Result, busy time.Duration)
}

// Name identifies the local worker in attribution and metrics.
func (r *PoolRunner) Name() string {
	if r.WorkerName != "" {
		return r.WorkerName
	}
	return "local"
}

// Run executes the point as a pool job; noCache is moot here — the
// pool always simulates, the coordinator owns cache lookups. Pool
// errors are returned plain: a failure on the local pool fails the
// sweep fast, matching single-node engine semantics.
func (r *PoolRunner) Run(ctx context.Context, p sweep.Point, timeout time.Duration, _ bool) (*sim.Result, error) {
	out, err := r.Pool.Run(ctx, func(jctx context.Context) (any, error) {
		cfg, err := sweep.Instantiate(p)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := sim.RunContext(jctx, cfg)
		if err == nil && r.OnRun != nil {
			r.OnRun(res, time.Since(t0))
		}
		return res, err
	}, timeout)
	if err != nil {
		return nil, err
	}
	res, ok := out.(*sim.Result)
	if !ok {
		return nil, fmt.Errorf("fleet: point job returned %T, want *sim.Result", out)
	}
	return res, nil
}

// Healthy reports whether the pool is accepting work.
func (r *PoolRunner) Healthy(context.Context) bool {
	return r.Pool != nil && !r.Pool.Draining()
}
