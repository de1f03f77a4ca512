package fleet

import (
	"context"
	"fmt"
	"time"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// PoolRunner adapts the local jobs pool to the Runner interface, so
// the coordinator dispatches to this daemon's own workers exactly
// like to a remote one. Each point runs as a pool job keyed by its
// content address, so it coalesces with any identical job in flight.
type PoolRunner struct {
	// Pool executes the points; required.
	Pool *jobs.Pool
	// Job builds the pool job computing p and storing its result under
	// key; required. The daemon's job function runs the point through
	// sweep.Instantiate, like the engine, so a one-worker fleet is
	// byte-identical to Engine.Run.
	Job func(p sweep.Point, key results.Key) jobs.Fn
}

// Name identifies the local worker in attribution and metrics.
func (r *PoolRunner) Name() string { return "local" }

// Run executes the point as a pool job, joining one in flight unless
// noCache. Pool errors are returned plain: a failure on the local pool
// fails the sweep fast, matching single-node engine semantics.
func (r *PoolRunner) Run(ctx context.Context, p sweep.Point, timeout time.Duration, noCache bool) (*sim.Result, error) {
	key, _ := p.Key()
	res, _, err := r.run(ctx, p, key, !noCache, timeout)
	return res, err
}

// run executes p as a pool job storing its result under key; join lets
// it coalesce onto a job already computing key (joined reports it).
func (r *PoolRunner) run(ctx context.Context, p sweep.Point, key results.Key, join bool, timeout time.Duration) (*sim.Result, bool, error) {
	joinKey := ""
	if join {
		joinKey = string(key)
	}
	out, joined, err := r.Pool.RunKeyed(ctx, joinKey, r.Job(p, key), timeout)
	if err != nil {
		return nil, joined, err
	}
	res, ok := out.(*sim.Result)
	if !ok {
		return nil, joined, fmt.Errorf("fleet: point job returned %T, want *sim.Result", out)
	}
	return res, joined, nil
}

// Healthy reports whether the pool is accepting work.
func (r *PoolRunner) Healthy(context.Context) bool {
	return r.Pool != nil && !r.Pool.Draining()
}
