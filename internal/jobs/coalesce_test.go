package jobs

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedFn returns a job function that counts its executions, reports
// each start on started, and blocks until release is closed (or its
// context ends), then returns val.
func gatedFn(runs *atomic.Int32, started chan<- struct{}, release <-chan struct{}, val any) Fn {
	return func(ctx context.Context) (any, error) {
		runs.Add(1)
		if started != nil {
			started <- struct{}{}
		}
		select {
		case <-release:
			return val, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// waitFor polls cond until it holds or a few seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

type runOut struct {
	out    any
	joined bool
	err    error
}

// goRunKeyed starts RunKeyed on its own goroutine and returns the
// channel its outcome arrives on.
func goRunKeyed(p *Pool, ctx context.Context, key string, fn Fn) <-chan runOut {
	ch := make(chan runOut, 1)
	go func() {
		out, joined, err := p.RunKeyed(ctx, key, fn, 0)
		ch <- runOut{out, joined, err}
	}()
	return ch
}

// TestCoalesceRunKeyedJoins: identical keys share one execution and
// one result; a finished key and an empty key never join.
func TestCoalesceRunKeyedJoins(t *testing.T) {
	p := New(2, 8)
	defer p.Shutdown(context.Background())
	var runs atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	fn := gatedFn(&runs, started, release, "shared")

	first := goRunKeyed(p, context.Background(), "k", fn)
	<-started
	second := goRunKeyed(p, context.Background(), "k", fn)
	waitFor(t, "the join", func() bool { return p.Stats().Joined == 1 })
	close(release)
	a, b := <-first, <-second
	if a.err != nil || b.err != nil {
		t.Fatalf("errors: %v, %v", a.err, b.err)
	}
	if a.out != "shared" || b.out != "shared" || a.joined || !b.joined {
		t.Fatalf("outcomes %+v / %+v, want one owner and one joiner of \"shared\"", a, b)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}

	// A finished key leaves the table; "" never coalesces.
	for _, key := range []string{"k", "", ""} {
		if _, joined, err := p.RunKeyed(context.Background(), key, fn, 0); err != nil || joined {
			t.Fatalf("RunKeyed(%q) joined=%v err=%v, want a fresh run", key, joined, err)
		}
	}
	if st := p.Stats(); st.Joined != 1 || st.Completed != 4 {
		t.Fatalf("stats %+v, want 1 join and 4 completions", st)
	}
}

// TestCoalesceWaiterLeaving: a waiter leaving cancels a shared job
// only when it was the last one, and never one a SubmitKeyed caller
// holds.
func TestCoalesceWaiterLeaving(t *testing.T) {
	p := New(1, 8)
	defer p.Shutdown(context.Background())
	var runs atomic.Int32
	started := make(chan struct{}, 8)

	// A leaves while B still waits: the job runs on and serves B.
	release := make(chan struct{})
	fn := gatedFn(&runs, started, release, 7)
	ctxA, leaveA := context.WithCancel(context.Background())
	a := goRunKeyed(p, ctxA, "k", fn)
	<-started
	b := goRunKeyed(p, context.Background(), "k", fn)
	waitFor(t, "the join", func() bool { return p.Stats().Joined == 1 })
	leaveA()
	if out := <-a; !errors.Is(out.err, context.Canceled) {
		t.Fatalf("leaving waiter got %v, want context.Canceled", out.err)
	}
	close(release)
	if out := <-b; out.err != nil || out.out != 7 {
		t.Fatalf("remaining waiter got %+v, want the job's 7", out)
	}

	// The last waiter to leave reaps the job.
	ctxC, leaveC := context.WithCancel(context.Background())
	c := goRunKeyed(p, ctxC, "orphan", gatedFn(&runs, started, nil, nil))
	<-started
	leaveC()
	<-c
	waitFor(t, "the orphan's cancellation", func() bool { return p.Stats().Canceled == 1 })

	// A submitter pins its job: a joined waiter leaving cannot cancel it.
	release = make(chan struct{})
	fn = gatedFn(&runs, started, release, 8)
	id, joined, err := p.SubmitKeyed("pinned", fn, 0)
	if err != nil || joined {
		t.Fatalf("SubmitKeyed: joined=%v err=%v", joined, err)
	}
	<-started
	ctxD, leaveD := context.WithCancel(context.Background())
	d := goRunKeyed(p, ctxD, "pinned", fn)
	waitFor(t, "the join", func() bool { return p.Stats().Joined == 2 })
	leaveD()
	<-d
	close(release)
	snap, err := p.Wait(context.Background(), id)
	if err != nil || snap.State != StateDone || snap.Result != 8 {
		t.Fatalf("pinned job: %+v, %v; want done with 8", snap, err)
	}
}

// TestCoalesceResubmitAfterCancel: a waiter whose job someone else
// cancels submits again instead of failing.
func TestCoalesceResubmitAfterCancel(t *testing.T) {
	p := New(1, 8)
	defer p.Shutdown(context.Background())
	var runs atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	fn := gatedFn(&runs, started, release, "second")

	waiter := goRunKeyed(p, context.Background(), "k", fn)
	<-started
	if err := p.Cancel("j-00000001"); err != nil { // IDs are sequential
		t.Fatal(err)
	}
	<-started // the resubmission runs
	close(release)
	out := <-waiter
	if out.err != nil || out.out != "second" {
		t.Fatalf("waiter got %+v, want the resubmitted job's result", out)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("fn ran %d times, want 2 (cancelled, then resubmitted)", n)
	}
}

// TestCoalesceDoSharesTable: work run outside the worker slots (Do)
// and pool jobs coalesce through one table, in both directions, and a
// joined failure keeps its error chain.
func TestCoalesceDoSharesTable(t *testing.T) {
	p := New(1, 8)
	defer p.Shutdown(context.Background())
	var runs atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{}, 8)

	// A pool job joins a Do in flight.
	do := make(chan runOut, 1)
	go func() {
		out, joined, err := p.Do(context.Background(), "remote", gatedFn(&runs, started, release, "from-do"), 0)
		do <- runOut{out, joined, err}
	}()
	<-started
	job := goRunKeyed(p, context.Background(), "remote", gatedFn(&runs, started, release, "unused"))
	waitFor(t, "the join", func() bool { return p.Stats().Joined == 1 })
	close(release)
	a, b := <-do, <-job
	if a.out != "from-do" || a.joined || b.out != "from-do" || !b.joined {
		t.Fatalf("outcomes %+v / %+v, want the Do's result shared", a, b)
	}

	// A Do joins an in-flight pool job, and sees its failure unwrapped.
	boom := errors.New("boom")
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.RunKeyed(context.Background(), "local", func(context.Context) (any, error) {
			<-gate
			return nil, boom
		}, 0)
	}()
	waitFor(t, "the local job", func() bool { return p.Stats().Running == 1 })
	doErr := make(chan error, 1)
	go func() {
		_, joined, err := p.Do(context.Background(), "local", func(context.Context) (any, error) {
			t.Error("Do ran its own fn despite an in-flight job")
			return nil, nil
		}, 0)
		if !joined {
			t.Error("Do did not join the in-flight job")
		}
		doErr <- err
	}()
	waitFor(t, "the join", func() bool { return p.Stats().Joined == 2 })
	close(gate)
	wg.Wait()
	if err := <-doErr; !errors.Is(err, boom) {
		t.Fatalf("joined Do got %v, want an error wrapping boom", err)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("gated fns ran %d times, want 1", n)
	}
}
