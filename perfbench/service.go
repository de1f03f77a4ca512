package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	mapsim "github.com/maps-sim/mapsim"
	"github.com/maps-sim/mapsim/internal/journal"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/server"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/store"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// The service-mix shape. Simulations are short so that the server,
// jobs, store, and journal layers are a visible share of the time.
const (
	svcSweepInstructions = 200_000
	svcJobInstructions   = 150_000
	mixedJobsPerClient   = 6
	// pollInterval paces Client.Wait well below a job's run time, so
	// job latencies are not quantized by polling.
	pollInterval = time.Millisecond
	// traceRounds is how many rounds each pass of the traced run makes.
	traceRounds = 12
)

var (
	svcBenchmarks = []string{"canneal", "libquantum", "mcf"}
	mixBenchmarks = []string{"canneal", "libquantum", "mcf", "fft", "lbm", "omnetpp"}
	svcMetaSizes  = []int{16 << 10, 64 << 10, 256 << 10}
	svcContents   = []string{"counters", "all"}
)

// daemon is an in-process mapsd: server, disk store, journal at fsync
// always, and a loopback listener.
type daemon struct {
	srv   *server.Server
	hs    *http.Server
	url   string
	dir   string
	serve chan struct{} // closed when Serve returns
}

// startDaemon builds a daemon over fresh directories under dir and
// returns once /readyz answers 200, with the time that took.
func startDaemon(dir string, hc *http.Client) (*daemon, time.Duration, error) {
	t0 := time.Now()
	st, err := store.Open(store.Options{Memory: results.New(256), Dir: filepath.Join(dir, "store")})
	if err != nil {
		return nil, 0, err
	}
	jd, err := journal.Open(journal.Options{Dir: filepath.Join(dir, "journal"), Sync: journal.SyncAlways})
	if err != nil {
		st.Close()
		return nil, 0, err
	}
	srv := server.New(server.Config{Workers: par, Store: st, Journal: jd})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, 0, err
	}
	d := &daemon{
		srv:   srv,
		hs:    &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:   "http://" + ln.Addr().String(),
		dir:   dir,
		serve: make(chan struct{}),
	}
	go func() {
		defer close(d.serve)
		d.hs.Serve(ln)
	}()
	for {
		resp, err := hc.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("daemon not ready after 30 s: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop drains HTTP, then the server (which flushes and closes the
// store), and waits for the listener goroutine.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	d.srv.MarkDraining()
	err := d.hs.Shutdown(ctx)
	<-d.serve
	return errors.Join(err, d.srv.Shutdown(ctx))
}

// reportedMinstr scrapes mapsd_simulated_instructions_total.
func (d *daemon) reportedMinstr(hc *http.Client) (float64, error) {
	resp, err := hc.Get(d.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "mapsd_simulated_instructions_total "); ok {
			n, err := strconv.ParseFloat(v, 64)
			return n / 1e6, err
		}
	}
	return 0, fmt.Errorf("mapsd_simulated_instructions_total not in /metrics")
}

// transport counts job-status polls and, when spans is set, records
// one span per request under the current phase span.
type transport struct {
	base  http.RoundTripper
	mu    sync.Mutex
	polls map[string]int // GET /v1/jobs/{id} per path
	spans *spanLog
	phase atomic.Int64 // parent span ID for requests
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := req.URL.Path
	if req.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/") && !strings.Contains(p[len("/v1/jobs/"):], "/") {
		t.mu.Lock()
		t.polls[p]++
		t.mu.Unlock()
	}
	if t.spans == nil {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	attrs := map[string]any{}
	if resp != nil {
		attrs["status"] = resp.StatusCode
	}
	// A watch stream's body is still being read when RoundTrip returns;
	// its span covers the response headers only.
	t.spans.add(int(t.phase.Load()), "http "+req.Method+" "+p, start, time.Now(), attrs)
	return resp, err
}

func (t *transport) pollsOf(id string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.polls["/v1/jobs/"+id]
}

// jobLog is one mixed-phase job as the client saw it.
type jobLog struct {
	spec   mapsim.ConfigSpec
	unique bool
	status mapsim.JobStatus
	rt     time.Duration // submit to result
	polls  int
	out    counters
}

// roundLog is one round's request log: write, read, and mixed phases.
type roundLog struct {
	points    []sweep.Point
	cold      [][]counters // write phase: per client, per point (nil if it failed)
	warm      [][]counters // read phase
	pairWall  time.Duration
	warmWalls []time.Duration
	simsDelta uint64
	jobs      []jobLog
	instrs    uint64 // distinct instructions the round requested
	wall      time.Duration
}

// pass drives one daemon through rounds with two closed-loop clients.
type pass struct {
	d       *daemon
	tr      *transport
	clients []*mapsim.Client
	r       *report
	rounds  []roundLog
	rss     float64 // peak RSS in MB after rssReps rounds
}

func newPass(d *daemon, tr *transport, r *report) *pass {
	p := &pass{d: d, tr: tr, r: r}
	for i := 0; i < par; i++ {
		c := mapsim.NewClient(d.url)
		c.HTTPClient = &http.Client{Transport: tr}
		c.PollInterval = pollInterval
		p.clients = append(p.clients, c)
	}
	return p
}

// sweepRequest is the write phase's cold sweep: meta-sweep's shape,
// short runs.
func sweepRequest(seed int64) (mapsim.SweepRequest, []sweep.Point, error) {
	req := mapsim.SweepRequest{
		Base:        mapsim.ConfigSpec{Instructions: svcSweepInstructions, Seed: seed},
		Axes:        mapsim.SweepAxes{Benchmarks: svcBenchmarks, Contents: svcContents},
		Parallelism: par,
	}
	for _, m := range svcMetaSizes {
		req.Axes.Meta.Points = append(req.Axes.Meta.Points, mapsim.ByteSize(m))
	}
	// The same grid, expanded locally, for the output check.
	base, err := req.Base.ToSim()
	if err != nil {
		return req, nil, err
	}
	spec := sweep.Spec{Base: base, Axes: sweep.Axes{
		Benchmarks: svcBenchmarks, Meta: sweep.IntAxis{Points: svcMetaSizes}, Contents: svcContents,
	}}
	points, err := spec.Expand()
	return req, points, err
}

// uniqueSpec is the u-th distinct config a client submits in a round.
// Secure and insecure runs alternate; the benchmark, metadata size
// and content rotate with the round seed.
func uniqueSpec(seed int64, client, u int) mapsim.ConfigSpec {
	rot := int(seed%6+6) + u + client
	secure := u%2 == 0
	spec := mapsim.ConfigSpec{
		Benchmark:    mixBenchmarks[rot%len(mixBenchmarks)],
		Instructions: svcJobInstructions,
		Seed:         seed*100 + int64(client*50+u) + 1,
		Secure:       &secure,
	}
	if secure {
		spec.Meta = &mapsim.MetaSpec{Size: mapsim.ByteSize(svcMetaSizes[rot%len(svcMetaSizes)]), Content: svcContents[rot%len(svcContents)]}
	}
	return spec
}

// each runs f once per client concurrently and waits for all.
func (p *pass) each(f func(i int, c *mapsim.Client)) {
	var wg sync.WaitGroup
	for i, c := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i, c)
		}()
	}
	wg.Wait()
}

// round runs the three phases once with inputs from seed.
func (p *pass) round(ctx context.Context, seed int64, parent int) error {
	req, points, err := sweepRequest(seed)
	if err != nil {
		return err
	}
	rl := roundLog{points: points}
	for _, pt := range points {
		n, err := requestedInstrs(pt.Config)
		if err != nil {
			return err
		}
		rl.instrs += n
	}
	n := len(p.clients)
	var mu sync.Mutex
	fail := func(op string, err error) {
		mu.Lock()
		p.r.ops(0, 1)
		mu.Unlock()
		p.r.info("%s failed: %v", op, err)
	}
	phase := func(name string) func() {
		if p.tr.spans == nil {
			return func() {}
		}
		id := p.tr.spans.open(parent, name, nil)
		p.tr.phase.Store(int64(id))
		return func() { p.tr.spans.close(id) }
	}

	// Write phase: both clients submit the same cold sweep at once.
	end := phase("write")
	before := p.d.srv.PoolStats().Completed
	rl.cold = make([][]counters, n)
	t0 := time.Now()
	p.each(func(i int, c *mapsim.Client) {
		res, err := c.RunSweepRemote(ctx, req, nil)
		if err != nil {
			fail("cold sweep", err)
			return
		}
		rl.cold[i] = pointCounters(res)
	})
	rl.pairWall = time.Since(t0)
	rl.simsDelta = p.d.srv.PoolStats().Completed - before
	p.r.ops(n, 0)
	end()

	// Read phase: both resubmit it and are answered from the store.
	end = phase("read")
	rl.warm = make([][]counters, n)
	rl.warmWalls = make([]time.Duration, n)
	p.each(func(i int, c *mapsim.Client) {
		t0 := time.Now()
		res, err := c.RunSweepRemote(ctx, req, nil)
		rl.warmWalls[i] = time.Since(t0)
		if err != nil {
			fail("warm sweep", err)
			return
		}
		rl.warm[i] = pointCounters(res)
	})
	p.r.ops(n, 0)
	end()

	// Mixed phase: closed loops of short jobs, each unique config
	// followed by two repeats of it that the store answers.
	end = phase("mixed")
	perClient := make([][]jobLog, n)
	p.each(func(i int, c *mapsim.Client) {
		var last mapsim.ConfigSpec
		for k := 0; k < mixedJobsPerClient; k++ {
			j := jobLog{spec: last}
			if k%3 == 0 {
				j = jobLog{spec: uniqueSpec(seed, i, k/3), unique: true}
				last = j.spec
			}
			if err := p.job(ctx, c, &j); err != nil {
				fail("job", err)
				continue
			}
			perClient[i] = append(perClient[i], j)
		}
	})
	end()
	for _, js := range perClient {
		p.r.ops(mixedJobsPerClient, 0)
		for _, j := range js {
			rl.jobs = append(rl.jobs, j)
			if !j.unique {
				continue
			}
			cfg, err := j.spec.ToSim()
			if err != nil {
				return err
			}
			n, err := requestedInstrs(cfg)
			if err != nil {
				return err
			}
			rl.instrs += n
		}
	}
	p.rounds = append(p.rounds, rl)
	return nil
}

// job submits one run, waits for it, and fetches its result.
func (p *pass) job(ctx context.Context, c *mapsim.Client, j *jobLog) error {
	t0 := time.Now()
	st, err := c.Submit(ctx, mapsim.JobRequest{Config: j.spec})
	if err != nil {
		return err
	}
	if !st.State.Terminal() {
		if st, err = c.Wait(ctx, st.ID); err != nil {
			return err
		}
	}
	if st.State != mapsim.JobDone {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	res, err := c.Result(ctx, st.ID)
	if err != nil {
		return err
	}
	j.rt = time.Since(t0)
	j.status = st
	j.polls = p.tr.pollsOf(st.ID)
	if res.Run == nil {
		return fmt.Errorf("job %s returned no run result", st.ID)
	}
	j.out = countersOf(res.Run)
	return nil
}

func pointCounters(res *sweep.Result) []counters {
	out := make([]counters, len(res.Points))
	for i, p := range res.Points {
		out[i] = countersOf(p.Result)
	}
	return out
}

// run makes rounds until their summed wall time reaches the window (at
// least one), or exactly n rounds when n > 0, and returns that sum.
// after, if set, runs after each round outside the timing. It records
// the peak RSS after rssReps rounds, or at the end if it makes fewer.
func (p *pass) run(ctx context.Context, seed int64, window time.Duration, n int, parent int, after func(*roundLog) error) (time.Duration, error) {
	defer func() {
		if len(p.rounds) < rssReps {
			p.rss = peakRSSMB()
		}
	}()
	var timed time.Duration
	t0 := time.Now()
	for i := 0; ; i++ {
		if n > 0 && i == n || n == 0 && i > 0 && timed >= window {
			break
		}
		if n == 0 && time.Since(t0) > 4*window {
			return 0, fmt.Errorf("%d rounds timed %.3f s of the %v window in %v", i, timed.Seconds(), window, time.Since(t0))
		}
		id := 0
		if p.tr.spans != nil {
			id = p.tr.spans.open(parent, "round", map[string]any{"round": i})
		}
		ts := time.Now()
		if err := p.round(ctx, repSeed(seed, i), id); err != nil {
			return 0, err
		}
		p.rounds[len(p.rounds)-1].wall = time.Since(ts)
		timed += p.rounds[len(p.rounds)-1].wall
		if id != 0 {
			p.tr.spans.close(id)
		}
		if len(p.rounds) == rssReps {
			p.rss = peakRSSMB()
		}
		if after != nil {
			if err := after(&p.rounds[len(p.rounds)-1]); err != nil {
				return 0, err
			}
		}
	}
	return timed, nil
}

// checkJobs lists every distinct config the round requested with
// every remote result it produced, for the output check.
func (rl *roundLog) checkJobs() ([]checkJob, error) {
	var out []checkJob
	for i, pt := range rl.points {
		j := checkJob{point: pt}
		for _, outs := range append(append([][]counters(nil), rl.cold...), rl.warm...) {
			if i < len(outs) {
				j.got = append(j.got, outs[i])
			}
		}
		out = append(out, j)
	}
	byKey := map[string]int{}
	for _, jl := range rl.jobs {
		if idx, ok := byKey[jl.status.Key]; ok {
			out[idx].got = append(out[idx].got, jl.out)
			continue
		}
		cfg, err := jl.spec.ToSim()
		if err != nil {
			return nil, err
		}
		byKey[jl.status.Key] = len(out)
		out = append(out, checkJob{sweep.Point{Benchmark: cfg.Benchmark, Secure: cfg.Secure, Config: cfg}, []counters{jl.out}})
	}
	return out, nil
}

// checkJobs concatenates every round's output-check jobs.
func (p *pass) checkJobs() ([]checkJob, error) {
	var out []checkJob
	for i := range p.rounds {
		jobs, err := p.rounds[i].checkJobs()
		if err != nil {
			return nil, err
		}
		out = append(out, jobs...)
	}
	return out, nil
}

// imageSweeps is how many cold sweeps the restart image holds: their
// points fill the disk store and their finished journals are replayed
// and removed at every start, so set-up does a restart's real work.
const imageSweeps = 10

// imageRep is the first repetition number of the image's sweeps, far
// past any round of a window, so the window's cold sweeps stay cold.
const imageRep = 1_000_000

// buildImage runs imageSweeps cold sweeps through a daemon over dir and
// stops it, leaving the store and journal a restarted daemon opens.
func buildImage(ctx context.Context, dir string, seed int64, hc *http.Client) error {
	d, _, err := startDaemon(dir, hc)
	if err != nil {
		return err
	}
	c := mapsim.NewClient(d.url)
	c.HTTPClient = hc
	c.PollInterval = pollInterval
	for i := 0; i < imageSweeps; i++ {
		req, _, err := sweepRequest(repSeed(seed, imageRep+i))
		if err == nil {
			_, err = c.RunSweepRemote(ctx, req, nil)
		}
		if err != nil {
			d.stop()
			return fmt.Errorf("restart image: %w", err)
		}
	}
	return d.stop()
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// startFrom starts a daemon over a fresh copy of the restart image in
// the work directory's subdirectory tag, and returns it with the time
// from its first call until /readyz answered.
func startFrom(o options, image string, hc *http.Client, tag string) (*daemon, time.Duration, error) {
	dir := filepath.Join(o.workDir, tag)
	if err := copyTree(image, dir); err != nil {
		return nil, 0, err
	}
	// Collect earlier garbage outside the timing.
	runtime.GC()
	return startDaemon(dir, hc)
}

// sampleSetup restarts a throwaway daemon over a fresh copy of the
// restart image, stops it, and returns its set-up time.
func sampleSetup(o options, image string, hc *http.Client, tag string) (time.Duration, error) {
	d, took, err := startFrom(o, image, hc, tag)
	if err != nil {
		return 0, err
	}
	if err := d.stop(); err != nil {
		return 0, err
	}
	return took, os.RemoveAll(d.dir)
}

func runServiceMix(o options, r *report) error {
	base := &http.Transport{MaxIdleConnsPerHost: 4 * par, IdleConnTimeout: 30 * time.Second}
	defer base.CloseIdleConnections()
	hc := &http.Client{Transport: base}
	ctx := context.Background()
	r.info("mapsd in process: %d pool workers, disk store, journal fsync always, %d closed-loop clients, poll interval %v",
		par, par, pollInterval)
	image := filepath.Join(o.workDir, "image")
	if err := buildImage(ctx, image, o.seed, hc); err != nil {
		return err
	}
	if o.trace {
		return traceServiceMix(ctx, o, r, image, base, hc)
	}

	d, took, err := startFrom(o, image, hc, "timed")
	if err != nil {
		return err
	}
	setups := []float64{took.Seconds()}
	checked := 0
	// After each round, outside the window: its output check, then a
	// set-up sample. The window's samples spread over the whole run,
	// and so do the set-up samples.
	after := func(rl *roundLog) error {
		jobs, err := rl.checkJobs()
		if err == nil {
			err = checkPoints(ctx, r, jobs)
		}
		if err != nil {
			return err
		}
		checked += len(jobs)
		took, err := sampleSetup(o, image, hc, fmt.Sprintf("setup-%d", len(setups)))
		setups = append(setups, took.Seconds())
		return err
	}
	p := newPass(d, &transport{base: base, polls: map[string]int{}}, r)
	h0 := readHostClock()
	t0 := time.Now()
	window, err := p.run(ctx, o.seed, o.window, 0, 0, after)
	span := time.Since(t0)
	h1 := readHostClock()
	if err != nil {
		d.stop()
		return err
	}
	reported, err := d.reportedMinstr(hc)
	if err != nil {
		d.stop()
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}

	var instrs uint64
	var rates, pairs, warms, jobMs, polls []float64
	for _, rl := range p.rounds {
		instrs += rl.instrs
		rates = append(rates, float64(rl.instrs)/1e6/rl.wall.Seconds())
		pairs = append(pairs, rl.pairWall.Seconds())
		for _, w := range rl.warmWalls {
			warms = append(warms, ms(w))
		}
		for _, j := range rl.jobs {
			jobMs = append(jobMs, ms(j.rt))
			polls = append(polls, float64(j.polls))
		}
	}
	tl, pct := blockTail(jobMs)
	r.e2e("setup_s", median(setups), "s", fmt.Sprintf("median of %d daemon restarts, one before the window and one after each round, over a store and journal of %d finished sweeps: store open, journal replay, server, listener, until /readyz", len(setups), imageSweeps))
	r.e2e("throughput_minstr_s", median(rates), "Minstr/s",
		fmt.Sprintf("median over %d rounds of distinct instructions requested over round wall; whole window: %d over %.3f s = %.4g; server.reported_minstr %.3f (not used)",
			len(p.rounds), instrs, window.Seconds(), float64(instrs)/1e6/window.Seconds(), reported))
	r.info("window %.3f s of round wall spread over %.3f s; %.3f s process CPU, %.3f s machine steal over the span",
		window.Seconds(), span.Seconds(), (h1.cpu - h0.cpu).Seconds(), (h1.steal - h0.steal).Seconds())
	r.info("output check: %d configs re-simulated through sim.RunContext", checked)
	r.e2e("peak_rss_mb", p.rss, "MB", fmt.Sprintf("VmHWM after the first %d rounds (fixed work)", min(rssReps, len(p.rounds))))
	r.e2e("sweep_s", median(pairs), "s", fmt.Sprintf("= sweep_pair_s: median over %d write phases of the later of two concurrent cold sweeps", len(pairs)))
	r.e2e("sweep_pair_s", median(pairs), "s", "write phase")
	r.e2e("sweep_warm_ms", median(warms), "ms", fmt.Sprintf("median of %d read-phase sweeps answered from the store", len(warms)))
	r.e2e("job_p50_ms", median(jobMs), "ms", fmt.Sprintf("mixed phase, submit to result, %d jobs; poll interval %v, %.2f polls/job", len(jobMs), pollInterval, sum(polls)/float64(len(polls))))
	r.e2e("job_tail_ms", tl, "ms", fmt.Sprintf("median over %d consecutive blocks of each block's p%.1f; %d jobs; poll interval %v", tailBlocks, pct, len(jobMs), pollInterval))
	wt, wpct := tail(jobMs)
	r.info("whole-window job tail p%.1f = %.3f ms over %d jobs", wpct, wt, len(jobMs))
	reportCounts(r, p, reported)
	return nil
}

// reportCounts prints the counts the benchmark computes from its own
// request log, beside the daemon's own instruction counter.
func reportCounts(r *report, p *pass, reported float64) {
	var sims uint64
	var unique int
	var instrs uint64
	for _, rl := range p.rounds {
		sims += rl.simsDelta
		unique += len(rl.points)
		instrs += rl.instrs
	}
	r.layer("jobs.sims_per_unique_point", float64(sims)/float64(unique), "ratio",
		fmt.Sprintf("write phase: %d pool jobs completed / %d unique points; moves sweep_pair_s and throughput_minstr_s", sims, unique))
	r.layer("server.reported_minstr", reported, "Minstr",
		fmt.Sprintf("mapsd_simulated_instructions_total, printed only; the request log counts %.3f Minstr requested", float64(instrs)/1e6))
}

// traceServiceMix is the traced run: the same rounds untraced and then
// traced on fresh daemons, then direct store and journal timings over
// the records the workload produced, then the simulation layers on
// the first round's configs.
func traceServiceMix(ctx context.Context, o options, r *report, image string, base *http.Transport, hc *http.Client) error {
	du, _, err := startFrom(o, image, hc, "untraced")
	if err != nil {
		return err
	}
	pu := newPass(du, &transport{base: base, polls: map[string]int{}}, r)
	wallU, err := pu.run(ctx, o.seed, 0, traceRounds, 0, nil)
	if err != nil {
		du.stop()
		return err
	}
	if err := du.stop(); err != nil {
		return err
	}

	root := r.spans.open(0, "traced-pass", nil)
	dt, _, err := startFrom(o, image, hc, "traced")
	if err != nil {
		return err
	}
	pt := newPass(dt, &transport{base: base, polls: map[string]int{}, spans: r.spans}, r)
	wallT, err := pt.run(ctx, o.seed, 0, traceRounds, root, nil)
	if err != nil {
		dt.stop()
		return err
	}
	reported, err := dt.reportedMinstr(hc)
	if err != nil {
		dt.stop()
		return err
	}
	ss := dt.srv.StoreStats()
	if err := dt.stop(); err != nil {
		return err
	}
	r.spans.close(root)

	var httpMs, waitMs, runMs []float64
	for _, rl := range pt.rounds {
		for _, j := range rl.jobs {
			inServer := j.status.Finished.Sub(j.status.Created)
			httpMs = append(httpMs, ms(j.rt-inServer))
			if !j.status.CacheHit && !j.status.Deduped {
				waitMs = append(waitMs, ms(j.status.Started.Sub(j.status.Created)))
				runMs = append(runMs, ms(j.status.Finished.Sub(j.status.Started)))
			}
		}
	}
	wt, wpct := tail(waitMs)
	r.layer("server.http_ms", median(httpMs), "ms", fmt.Sprintf("median of %d jobs: round trip minus (Finished - Created); moves job_p50_ms", len(httpMs)))
	r.layer("jobs.queue_wait_ms.p50", median(waitMs), "ms", fmt.Sprintf("Started - Created over %d simulated jobs; moves job_tail_ms", len(waitMs)))
	r.layer("jobs.queue_wait_ms.tail", wt, "ms", fmt.Sprintf("p%.1f of %d simulated jobs; moves job_tail_ms", wpct, len(waitMs)))
	r.layer("jobs.run_ms", median(runMs), "ms", fmt.Sprintf("median Finished - Started over %d simulated jobs; moves job_tail_ms", len(runMs)))
	hits := ss.MemHits + ss.DiskHits
	r.layer("store.hit_ratio", float64(hits)/float64(max(hits+ss.Misses, 1)), "ratio",
		fmt.Sprintf("%d memory + %d disk hits / %d gets; moves sweep_warm_ms", ss.MemHits, ss.DiskHits, hits+ss.Misses))
	reportCounts(r, pt, reported)
	r.layer("server.trace_overhead_ratio", wallT.Seconds()/wallU.Seconds()-1, "ratio",
		fmt.Sprintf("%d rounds traced %.3f s vs untraced %.3f s", traceRounds, wallT.Seconds(), wallU.Seconds()))

	if err := timeStoreAndJournal(o, r, pt, filepath.Join(dt.dir, "store")); err != nil {
		return err
	}

	// The simulation layers, on the first round's distinct configs.
	first, err := pt.rounds[0].checkJobs()
	if err != nil {
		return err
	}
	var cfgs []sim.Config
	var want []counters
	for _, j := range first {
		if len(j.got) == 0 {
			continue // its request failed and was counted
		}
		cfg, err := sweep.Instantiate(j.point)
		if err != nil {
			return err
		}
		cfgs = append(cfgs, cfg)
		want = append(want, j.got[0])
	}
	lt, err := traceRuns(cfgs, want, r, root)
	if err != nil {
		return err
	}
	lt.reportLayers(r, "throughput_minstr_s")

	jobs, err := pt.checkJobs()
	if err != nil {
		return err
	}
	more, err := pu.checkJobs()
	if err != nil {
		return err
	}
	all := append(jobs, more...)
	r.info("output check: %d configs re-simulated through sim.RunContext", len(all))
	return checkPoints(ctx, r, all)
}

// timeStoreAndJournal times store.Open/Get/Put and journal
// Create/Point directly, over the keys and results the traced pass
// produced.
func timeStoreAndJournal(o options, r *report, p *pass, dir string) error {
	var keys []results.Key
	for _, rl := range p.rounds {
		for _, pt := range rl.points {
			pol, part := sweep.CacheNames(pt)
			key, err := results.PointKeyFor(pt.Config, pol, part)
			if err != nil {
				return err
			}
			keys = append(keys, key)
		}
	}

	// Disk tier: a fresh process's store over the daemon's directory.
	// The values it returns are the records the Put timing writes.
	st, err := store.Open(store.Options{Memory: results.New(len(keys) * 2), Dir: dir})
	if err != nil {
		return err
	}
	vals := make([]any, len(keys))
	timeGets := func() ([]float64, int) {
		var us []float64
		miss := 0
		for i, key := range keys {
			t0 := time.Now()
			v, ok := st.Get(context.Background(), key)
			us = append(us, float64(time.Since(t0))/1e3)
			if !ok {
				miss++
			}
			vals[i] = v
		}
		return us, miss
	}
	disk, diskMiss := timeGets()
	mem, memMiss := timeGets()
	st.Close()
	if diskMiss+memMiss > 0 {
		r.mismatchf("store lost %d of %d records written by the daemon", diskMiss+memMiss, 2*len(keys))
		return nil
	}
	r.layer("store.get_us.disk", median(disk), "us", fmt.Sprintf("median of %d Gets served by the disk tier; moves sweep_warm_ms", len(disk)))
	r.layer("store.get_us.memory", median(mem), "us", fmt.Sprintf("median of %d Gets served by the memory tier; moves sweep_warm_ms", len(mem)))

	// Puts into an empty store; the disk writes finish inside Close.
	st, err = store.Open(store.Options{Memory: results.New(len(keys) * 2), Dir: filepath.Join(o.workDir, "put-store")})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i, key := range keys {
		st.Put(key, vals[i])
	}
	st.Close()
	r.layer("store.put_us", float64(time.Since(t0))/1e3/float64(len(keys)), "us",
		fmt.Sprintf("mean over %d Puts including their disk writes; moves sweep_pair_s", len(keys)))

	// Journal point appends at fsync always.
	jd, err := journal.Open(journal.Options{Dir: filepath.Join(o.workDir, "journal-timing"), Sync: journal.SyncAlways})
	if err != nil {
		return err
	}
	w, err := jd.Create(journal.Admit{ID: "s-timing", Created: time.Now().UTC(), Total: len(keys), GridHash: "timing", Spec: []byte("{}")})
	if err != nil {
		return err
	}
	var pointUs []float64
	for i, key := range keys {
		t0 := time.Now()
		if err := w.Point(journal.Point{Index: i, Key: string(key), Worker: "local"}); err != nil {
			return err
		}
		pointUs = append(pointUs, float64(time.Since(t0))/1e3)
	}
	if err := w.Close(); err != nil {
		return err
	}
	r.layer("journal.point_us", median(pointUs), "us", fmt.Sprintf("median of %d Writer.Point appends, fsync always; moves sweep_pair_s", len(pointUs)))
	return os.RemoveAll(filepath.Join(o.workDir, "put-store"))
}
