package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// sweepInstructions is the measured length of every sim-workload
// point, the same as service-mix's sweep points. Secure points drift
// with the load on the shared host as their working set outgrows the
// caches: in interleaved runs, 2M points (the simulator's default)
// drifted about three times as much as 500K ones, and 500K points
// about twice as much as 200K ones. So the sweeps run short points and
// many repetitions.
const sweepInstructions = 200_000

// metaSweepSpec is the paper's Fig. 1 shape: secure, default PLRU,
// benchmarks x metadata-cache size x content. Its 18 points share
// three fronts (generator + hierarchy).
func metaSweepSpec(seed int64) sweep.Spec {
	return sweep.Spec{
		Base: sim.Config{Secure: true, Instructions: sweepInstructions, Seed: seed},
		Axes: sweep.Axes{
			Benchmarks: []string{"canneal", "libquantum", "mcf"},
			Meta:       sweep.IntAxis{Points: []int{16 << 10, 64 << 10, 256 << 10}},
			Contents:   []string{"counters", "all"},
		},
	}
}

// frontSweepSpec is insecure benchmarks x LLC size: every point has
// its own front and the engine does no work.
func frontSweepSpec(seed int64) sweep.Spec {
	return sweep.Spec{
		Base: sim.Config{Secure: false, Instructions: sweepInstructions, Seed: seed},
		Axes: sweep.Axes{
			Benchmarks: []string{"canneal", "libquantum", "mcf", "fft", "lbm", "omnetpp"},
			LLC:        sweep.IntAxis{Points: []int{1 << 20, 2 << 20, 4 << 20}},
		},
	}
}

func runMetaSweep(o options, r *report) error { return runSweepWorkload(o, r, metaSweepSpec) }

func runFrontSweep(o options, r *report) error { return runSweepWorkload(o, r, frontSweepSpec) }

// repSeed derives the seed of one repetition, so every repetition
// simulates distinct inputs and the same -seed gives the same inputs.
func repSeed(seed int64, rep int) int64 { return seed*1000 + int64(rep) + 1 }

// requestedInstrs is the warmup plus measured instructions a config
// asks the simulator for, with the simulator's own defaults applied.
func requestedInstrs(cfg sim.Config) (uint64, error) {
	c, err := cfg.Canonical()
	if err != nil {
		return 0, err
	}
	return c.Instructions + c.Warmup, nil
}

// pointsInstrs is the warmup plus measured instructions points request.
func pointsInstrs(points []sweep.Point) (uint64, error) {
	var instrs uint64
	for _, p := range points {
		n, err := requestedInstrs(p.Config)
		if err != nil {
			return 0, err
		}
		instrs += n
	}
	return instrs, nil
}

// runSweepWorkload repeats the workload's sweep with fresh seeds until
// the summed sweep.Run walls reach the window. Each sweep is followed,
// outside the window, by its output check, so the window's samples
// spread over the whole run, about twice its length, and a burst of
// load on the shared host weighs less in any one run.
func runSweepWorkload(o options, r *report, mk func(int64) sweep.Spec) error {
	ctx := context.Background()
	first := mk(repSeed(o.seed, 0))
	firstPoints, err := first.Expand()
	if err != nil {
		return err
	}
	r.info("sweep of %d points, parallelism %d, %d instructions per point",
		len(firstPoints), par, sweepInstructions)
	if o.trace {
		return traceSweep(ctx, r, first, firstPoints)
	}

	var setups, sweepWalls, rates, pointMs []float64
	var window time.Duration
	var instrs uint64
	var rss float64
	sweeps, checked := 0, 0
	h0 := readHostClock()
	t0 := time.Now()
	for i := 0; i == 0 || window < o.window; i++ {
		if time.Since(t0) > 4*o.window {
			return fmt.Errorf("%d sweeps timed %.3f s of the %v window in %v", i, window.Seconds(), o.window, time.Since(t0))
		}
		// Set-up is what a sweep's user does before sweep.Run: build the
		// spec and expand it into its points.
		ts := time.Now()
		spec := mk(repSeed(o.seed, i))
		points, err := spec.Expand()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(ts).Seconds())
		ts = time.Now()
		res, err := sweep.Run(ctx, spec, par)
		wall := time.Since(ts)
		window += wall
		if err != nil {
			r.ops(len(points), len(points))
			r.info("sweep %d failed: %v", i, err)
			continue
		}
		r.ops(len(points), 0)
		n, err := pointsInstrs(points)
		if err != nil {
			return err
		}
		instrs += n
		sweepWalls = append(sweepWalls, wall.Seconds())
		rates = append(rates, float64(n)/1e6/wall.Seconds())
		jobs := make([]checkJob, len(points))
		for k, pt := range res.Points {
			pointMs = append(pointMs, ms(pt.Result.Timing.Total))
			jobs[k] = checkJob{points[k], []counters{countersOf(pt.Result)}}
		}
		if sweeps++; sweeps == rssReps {
			rss = peakRSSMB()
		}
		// Output check, outside the window: this sweep's points again,
		// directly through sim.RunContext.
		if err := checkPoints(ctx, r, jobs); err != nil {
			return err
		}
		checked += len(jobs)
	}
	span := time.Since(t0)
	if sweeps < rssReps {
		rss = peakRSSMB()
	}
	h1 := readHostClock()
	r.info("window %.3f s of sweep.Run wall spread over %.3f s; %.3f s process CPU, %.3f s machine steal over the span",
		window.Seconds(), span.Seconds(), (h1.cpu - h0.cpu).Seconds(), (h1.steal - h0.steal).Seconds())
	r.info("output check: %d configs re-simulated through sim.RunContext", checked)

	r.e2e("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups, one before each sweep: its spec built and expanded", len(setups)))
	r.e2e("throughput_minstr_s", median(rates), "Minstr/s",
		fmt.Sprintf("median over %d sweeps of distinct instructions requested (warmup+measured) over sweep.Run wall; whole window: %d over %.3f s = %.4g",
			sweeps, instrs, window.Seconds(), float64(instrs)/1e6/window.Seconds()))
	r.e2e("peak_rss_mb", rss, "MB", fmt.Sprintf("VmHWM after the first %d sweeps and their checks (fixed work)", min(rssReps, sweeps)))
	r.e2e("sweep_s", median(sweepWalls), "s", fmt.Sprintf("median sweep.Run wall over %d sweeps", sweeps))
	r.e2e("job_p50_ms", median(pointMs), "ms", fmt.Sprintf("median point simulation (RunContext) over %d points", len(pointMs)))
	// The point tail is p90, not the highest percentile with ten samples
	// beyond it: above p90 it measures the shared host. On a 2-vCPU Xeon
	// with a CPU hog at half duty beside front-sweep, p50 and p90 grew
	// 1.32x and 1.37x, but p99 and the ten-beyond percentile 1.7x.
	r.e2e("job_tail_ms", quantile(pointMs, 0.9), "ms", fmt.Sprintf("p90 point simulation, %d samples", len(pointMs)))
	wt, wpct := tail(pointMs)
	r.info("point tail p%.1f = %.3f ms (highest percentile with ten samples beyond) over %d samples", wpct, wt, len(pointMs))
	return nil
}

// checkJob is one config to re-simulate and the results it must equal.
type checkJob struct {
	point sweep.Point
	got   []counters
}

// checkPoints re-runs each job's point through sim.RunContext, par at
// a time, and requires every result it was given to match.
func checkPoints(ctx context.Context, r *report, jobs []checkJob) error {
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan checkJob)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				cfg, err := sweep.Instantiate(j.point)
				var want *sim.Result
				if err == nil {
					want, err = sim.RunContext(ctx, cfg)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				for _, got := range j.got {
					if err == nil {
						if ok, diff := sameOutput(countersOf(want), got); !ok {
							r.mismatchf("%s seed %d: %s", j.point, j.point.Config.Seed, diff)
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return firstErr
}

// traceSweep is the traced run of a sim workload: one untraced sweep
// for the sweep layer's own numbers, then every point through the
// traced layer loop beside an untraced RunContext.
func traceSweep(ctx context.Context, r *report, spec sweep.Spec, points []sweep.Point) error {
	root := r.spans.open(0, "traced-pass", nil)
	ts := time.Now()
	res, err := sweep.Run(ctx, spec, par)
	if err != nil {
		return err
	}
	wall := time.Since(ts)
	r.spans.add(root, "sweep.Run", ts, time.Now(), map[string]any{"points": len(points)})
	r.ops(len(points), 0)
	var busy float64
	cfgs := make([]sim.Config, len(points))
	want := make([]counters, len(points))
	for i, pt := range res.Points {
		busy += pt.Result.Timing.Total.Seconds()
		if cfgs[i], err = sweep.Instantiate(points[i]); err != nil {
			return err
		}
		want[i] = countersOf(pt.Result)
	}
	lt, err := traceRuns(cfgs, want, r, root)
	if err != nil {
		return err
	}
	r.spans.close(root)
	lt.reportLayers(r, "throughput_minstr_s")
	r.layer("sweep.busy_s", busy, "s", fmt.Sprintf("summed point RunContext time over %d points; moves sweep_s", len(points)))
	r.layer("sweep.idle_ratio", 1-busy/(wall.Seconds()*float64(par)), "ratio",
		fmt.Sprintf("1 - busy / (wall %.3f s x parallelism %d); straggler and imbalance cost", wall.Seconds(), par))
	return nil
}
