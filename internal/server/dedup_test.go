package server

import (
	"net/http"
	"testing"
)

// With a single worker pinned by a long-running job, an identical
// queued submission must coalesce (singleflight) onto the queued job
// rather than enqueue a duplicate simulation.
func TestSubmitDedupsInflightJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	// Occupy the only worker so subsequent jobs stay queued.
	blocker := `{"type":"run","config":{"benchmark":"mcf","instructions":30000000}}`
	stBlock, _ := postJob(t, ts, blocker)

	queued := `{"type":"run","config":{"benchmark":"libquantum","instructions":20000000}}`
	st1, resp1 := postJob(t, ts, queued)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: status %d", resp1.StatusCode)
	}
	if st1.Deduped {
		t.Error("first submission reported deduped")
	}

	st2, resp2 := postJob(t, ts, queued)
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("deduped submission: status %d, want 200", resp2.StatusCode)
	}
	if !st2.Deduped {
		t.Error("identical in-flight submission not deduped")
	}
	if st2.ID != st1.ID {
		t.Errorf("deduped submission got job %s, want the in-flight job %s", st2.ID, st1.ID)
	}
	if st2.Key != st1.Key {
		t.Errorf("key mismatch: %s vs %s", st2.Key, st1.Key)
	}

	// A different config must not coalesce.
	other := `{"type":"run","config":{"benchmark":"libquantum","instructions":20000000,"seed":2}}`
	st3, _ := postJob(t, ts, other)
	if st3.Deduped || st3.ID == st1.ID {
		t.Errorf("distinct config coalesced onto job %s", st1.ID)
	}

	// NoCache is a forced re-run: it must bypass singleflight too.
	forced := `{"type":"run","config":{"benchmark":"libquantum","instructions":20000000},"no_cache":true}`
	st4, _ := postJob(t, ts, forced)
	if st4.Deduped || st4.ID == st1.ID {
		t.Errorf("no_cache submission coalesced onto job %s", st1.ID)
	}

	if got := s.PoolStats().Joined; got != 1 {
		t.Errorf("dedup counter = %d, want 1", got)
	}

	// Cancelling the queued job must clear its registration so the
	// next identical submission gets a fresh job.
	for _, id := range []string{st1.ID, st3.ID, st4.ID, stBlock.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if _, err := http.DefaultClient.Do(req); err != nil {
			t.Fatal(err)
		}
	}
	st5, _ := postJob(t, ts, queued)
	if st5.Deduped || st5.ID == st1.ID {
		t.Errorf("submission after cancel coalesced onto dead job %s", st1.ID)
	}
}

// A finished job must not capture later submissions: once the run
// completes its singleflight registration is gone and the result cache
// (not dedup) answers.
func TestDedupClearsAfterCompletion(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	st1, _ := postJob(t, ts, smallRun)
	waitDone(t, ts, st1.ID)

	st2, _ := postJob(t, ts, smallRun)
	if st2.Deduped {
		t.Error("completed job still captured a new submission")
	}
	if !st2.CacheHit {
		t.Error("second submission of a finished config should be a cache hit")
	}
	if got := s.PoolStats().Joined; got != 0 {
		t.Errorf("dedup counter = %d, want 0", got)
	}
}
