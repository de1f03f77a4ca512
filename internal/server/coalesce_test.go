package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"

	"github.com/maps-sim/mapsim/internal/jobs"
	"github.com/maps-sim/mapsim/internal/sim"
	"github.com/maps-sim/mapsim/internal/sweep"
)

// twinSweepBody is an 8-point grid (2 benchmarks × 2 meta sizes × 2
// content policies) whose points run long enough (~0.1 s) that two
// sweeps submitted together overlap on every point even when a
// coordinator goroutine waits out a scheduling quantum.
const twinSweepBody = `{
	"base": {"instructions": 2000000},
	"axes": {
		"benchmarks": ["canneal", "libquantum"],
		"meta": {"points": ["16KB", "64KB"]},
		"contents": ["counters", "all"]
	}
}`

// TestCoalesceIdenticalSweeps: two identical sweeps submitted together
// to a 2-worker daemon simulate each point once, agree on every
// result, count every joined point as deduped, and count each unique
// point's instructions once in mapsd_simulated_instructions_total.
func TestCoalesceIdenticalSweeps(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 32})
	// Admission returns at once, so back-to-back submissions overlap on
	// every point.
	var ids [2]string
	for i := range ids {
		st, resp := postSweep(t, ts, twinSweepBody)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d", resp.StatusCode)
		}
		ids[i] = st.ID
	}
	var sts [2]SweepStatus
	var res [2]*sweep.Result
	for i, id := range ids {
		sts[i] = waitSweepDone(t, ts, id)
		if sts[i].State != jobs.StateDone {
			t.Fatalf("sweep %s: %+v", id, sts[i])
		}
		res[i] = new(sweep.Result)
		getJSON(t, ts, "/v1/sweeps/"+id+"/result", res[i])
	}

	ps := s.PoolStats()
	if ps.Completed != 8 {
		t.Errorf("pool completed %d jobs for 8 unique points, want 8", ps.Completed)
	}
	if a, b := substance(res[0]), substance(res[1]); !reflect.DeepEqual(a, b) {
		t.Error("twin sweeps disagree on their results")
	}
	if deduped := sts[0].Deduped + sts[1].Deduped; deduped != int(ps.Joined) || deduped != 8 {
		t.Errorf("sweeps report %d+%d deduped points, pool joined %d; want both 8",
			sts[0].Deduped, sts[1].Deduped, ps.Joined)
	}
	if ss := s.SweepStatsSnapshot(); ss.PointsDone-ss.PointsDeduped != 8 {
		t.Errorf("points_done %d − points_deduped %d, want the 8 simulated", ss.PointsDone, ss.PointsDeduped)
	}
	var want uint64
	for _, p := range res[0].Points {
		want += p.Result.Instructions
	}
	if got := scrape(t, ts, "mapsd_simulated_instructions_total"); got != want {
		t.Errorf("mapsd_simulated_instructions_total = %d, want %d (each unique point once)", got, want)
	}
}

// substance strips what legitimately differs between two runs of one
// grid — host time and how each point was obtained — leaving the
// simulation output.
func substance(r *sweep.Result) sweep.Result {
	cp := *r
	cp.Wall, cp.Deduped, cp.Fronts = 0, 0, 0
	cp.Points = append([]sweep.PointResult(nil), r.Points...)
	for i := range cp.Points {
		cp.Points[i].Cached, cp.Points[i].Worker = false, ""
		res := *cp.Points[i].Result
		res.Timing = sim.PhaseTiming{}
		cp.Points[i].Result = &res
	}
	return cp
}

// scrape reads one integer-valued metric from /metrics.
func scrape(t *testing.T, ts *httptest.Server, name string) uint64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s missing", name)
	}
	n, err := strconv.ParseUint(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// onePointSweep is a one-point grid whose point is the run job
// onePointRun: the same content address, reached two ways.
const (
	onePointSweep = `{"base": {"benchmark": "mcf", "instructions": 1000000}}`
	onePointRun   = `{"type":"run","config":{"benchmark":"mcf","instructions":1000000}}`
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// waitRunning waits until the pool runs n jobs.
func waitRunning(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.PoolStats().Running != n {
		if time.Now().After(deadline) {
			t.Fatalf("pool never reached %d running jobs: %+v", n, s.PoolStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalesceRunJoinsSweepPoint: a /v1/jobs run of a point a sweep is
// simulating joins that simulation.
func TestCoalesceRunJoinsSweepPoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	sw, _ := postSweep(t, ts, onePointSweep)
	waitRunning(t, s, 1)
	st, resp := postJob(t, ts, onePointRun)
	if resp.StatusCode != http.StatusOK || !st.Deduped {
		t.Fatalf("run submitted mid-sweep: status %d deduped=%v, want 200 and deduped", resp.StatusCode, st.Deduped)
	}
	done := waitDone(t, ts, st.ID)
	if done.State != jobs.StateDone || done.Type != TypeRun || done.Key == "" {
		t.Fatalf("joined job: %+v", done)
	}
	var out JobResult
	getJSON(t, ts, "/v1/jobs/"+st.ID+"/result", &out)
	if out.Run == nil || out.Run.Benchmark != "mcf" {
		t.Fatalf("joined job result: %+v", out)
	}
	if fin := waitSweepDone(t, ts, sw.ID); fin.State != jobs.StateDone {
		t.Fatalf("sweep: %+v", fin)
	}
	if ps := s.PoolStats(); ps.Completed != 1 || ps.Joined != 1 {
		t.Errorf("pool %+v, want one simulation and one join", ps)
	}
}

// TestCoalesceCancelledSweepKeepsJoinedPoint: cancelling sweep A while
// sweep B waits on A's point leaves the point running for B, which
// completes with the point's correct result.
func TestCoalesceCancelledSweepKeepsJoinedPoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	a, _ := postSweep(t, ts, onePointSweep)
	waitRunning(t, s, 1)
	b, _ := postSweep(t, ts, onePointSweep)
	deadline := time.Now().Add(10 * time.Second)
	for s.PoolStats().Joined != 1 {
		if time.Now().After(deadline) {
			t.Fatal("sweep B never joined A's point")
		}
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+a.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	fin := waitSweepDone(t, ts, b.ID)
	if fin.State != jobs.StateDone {
		t.Fatalf("sweep B after A's cancel: %+v", fin)
	}
	var got sweep.Result
	getJSON(t, ts, "/v1/sweeps/"+b.ID+"/result", &got)
	want, err := sim.RunContext(context.Background(), sim.Config{Benchmark: "mcf", Instructions: 1000000, Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	want.Timing = sim.PhaseTiming{}
	res := *got.Points[0].Result
	res.Timing = sim.PhaseTiming{}
	if a, b := mustJSON(t, &res), mustJSON(t, want); a != b {
		t.Errorf("sweep B's point differs from a direct run:\n%s\n%s", a, b)
	}
	if ps := s.PoolStats(); ps.Completed != 1 || ps.Canceled != 0 {
		t.Errorf("pool %+v, want the shared point simulated once and never cancelled", ps)
	}
}
