package mapsim_test

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/maps-sim/mapsim"
	"github.com/maps-sim/mapsim/internal/fleet"
	"github.com/maps-sim/mapsim/internal/server"
)

// TestCoalesceFleetSweepsAcrossDaemons: two identical sweeps submitted
// together to a coordinator with one remote worker simulate each grid
// point once across both daemons — the coordinator's local lanes and
// its remote dispatches coalesce through one in-flight table.
func TestCoalesceFleetSweepsAcrossDaemons(t *testing.T) {
	_, tsW := fleetDaemon(t, nil)
	// The default straggler deadline (30 s) keeps re-issues, which run a
	// point a second time on purpose, out of this count.
	srv := server.New(server.Config{Workers: 1, QueueDepth: 32, Fleet: []fleet.Worker{fleetWorkerFor(tsW.URL)}})
	tsC := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		tsC.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	// Points long enough (~0.1 s) that no lane is preempted between its
	// store lookup and its join for a whole simulation.
	req := fleetSweepRequest()
	req.Base.Instructions = 1_000_000
	var results [2]*mapsim.SweepResult
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := mapsim.NewClient(tsC.URL)
			c.PollInterval = 5 * time.Millisecond
			res, err := c.RunSweepRemote(context.Background(), req, nil)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	runs := 0
	for _, base := range []string{tsC.URL, tsW.URL} {
		n, ok := scrapeMetric(t, base, "mapsd_sim_phase_runs_total")
		if !ok {
			t.Fatalf("%s: mapsd_sim_phase_runs_total missing", base)
		}
		runs += n
	}
	if runs != 8 {
		t.Errorf("two identical 8-point sweeps ran %d simulations across both daemons, want 8", runs)
	}
	if got, want := sanitizeSweep(t, results[0]), sanitizeSweep(t, results[1]); string(got) != string(want) {
		t.Errorf("twin sweeps disagree:\n%s\n%s", got, want)
	}
}
