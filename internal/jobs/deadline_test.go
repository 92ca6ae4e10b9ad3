package jobs

// Deadline-budget tests: a job whose budget expires while queued is
// cancelled without ever running (the client already gave up — running
// it would orphan work), and a running job's context is clipped to the
// budget so fn stops at the edge instead of the pool's JobTimeout.

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestDeadlineExpiredInQueueCancels: a queued job whose deadline passes
// before a worker picks it up must cancel, not execute.
func TestDeadlineExpiredInQueueCancels(t *testing.T) {
	m := NewManager(Config{Workers: 1, Queue: 8})
	defer m.Shutdown(context.Background())

	// Occupy the only worker so the budgeted job sits in the queue past
	// its deadline.
	release := make(chan struct{})
	blocker, _, err := m.Submit(func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	}, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}

	var ran atomic.Bool
	j, _, err := m.Submit(func(ctx context.Context) (any, error) {
		ran.Store(true)
		return "never", nil
	}, SubmitOpts{Deadline: time.Now().Add(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}

	time.Sleep(20 * time.Millisecond) // let the budget lapse in-queue
	close(release)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err == nil {
		t.Fatal("expired-in-queue job reported success")
	}

	snap := j.Snapshot()
	if snap.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled for a budget that lapsed in-queue", snap.Status)
	}
	if !strings.Contains(snap.Err, "deadline") {
		t.Fatalf("err = %q, want the deadline cause surfaced", snap.Err)
	}
	if ran.Load() {
		t.Fatal("expired job executed anyway — exactly the orphaned work a deadline exists to stop")
	}
}

// TestDeadlineBoundsRunningJob: a running job's context expires at the
// budget's edge, so a well-behaved fn returns promptly and the job goes
// terminal instead of running to the (much larger) pool timeout.
func TestDeadlineBoundsRunningJob(t *testing.T) {
	m := NewManager(Config{Workers: 1, JobTimeout: time.Minute})
	defer m.Shutdown(context.Background())

	start := time.Now()
	j, _, err := m.Submit(func(ctx context.Context) (any, error) {
		<-ctx.Done() // run until the budget clips us
		return nil, ctx.Err()
	}, SubmitOpts{Deadline: time.Now().Add(20 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err == nil {
		t.Fatal("budget-clipped job reported success")
	}
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("job ran %s; deadline did not bound the running context", elapsed)
	}

	snap := j.Snapshot()
	if !snap.Status.Terminal() || snap.Status == StatusDone {
		t.Fatalf("status = %s, want a non-done terminal state", snap.Status)
	}
	if !strings.Contains(snap.Err, "deadline") {
		t.Fatalf("err = %q, want the deadline error surfaced", snap.Err)
	}
}

// TestNoDeadlineUnaffected: the zero deadline means unbudgeted — the
// job runs normally.
func TestNoDeadlineUnaffected(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown(context.Background())
	j, _, err := m.Submit(func(ctx context.Context) (any, error) { return 7, nil }, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := j.Wait(context.Background())
	if err != nil || v != 7 {
		t.Fatalf("Wait = %v, %v", v, err)
	}
}
