package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func waitStatus(t *testing.T, j *Job, want Status) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.Status() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s: status %s, want %s", j.ID(), j.Status(), want)
}

func TestSubmitPollDone(t *testing.T) {
	m := NewManager(Config{Workers: 2, Queue: 8})
	defer m.Shutdown(context.Background())

	j, _, err := m.Submit(func(ctx context.Context) (any, error) { return 41 + 1, nil }, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil || res != 42 {
		t.Fatalf("Wait = %v, %v", res, err)
	}
	snap := j.Snapshot()
	if snap.Status != StatusDone || snap.Cached || snap.Finished.IsZero() {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestFailedJob(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown(context.Background())

	boom := errors.New("boom")
	j, _, _ := m.Submit(func(ctx context.Context) (any, error) { return nil, boom }, SubmitOpts{})
	if _, err := j.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if j.Status() != StatusFailed {
		t.Errorf("status = %s", j.Status())
	}
}

func TestPanicRecovery(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown(context.Background())

	j, _, _ := m.Submit(func(ctx context.Context) (any, error) { panic("kaboom") }, SubmitOpts{})
	_, err := j.Wait(context.Background())
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
	if j.Status() != StatusFailed {
		t.Errorf("status = %s", j.Status())
	}
	// The worker must survive the panic and run the next job.
	j2, _, _ := m.Submit(func(ctx context.Context) (any, error) { return "ok", nil }, SubmitOpts{})
	if res, err := j2.Wait(context.Background()); err != nil || res != "ok" {
		t.Fatalf("post-panic job: %v, %v", res, err)
	}
}

func TestCancelMidRun(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown(context.Background())

	started := make(chan struct{})
	j, _, _ := m.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}, SubmitOpts{})
	<-started
	if err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if j.Status() != StatusCancelled {
		t.Errorf("status = %s", j.Status())
	}
	if err := m.Cancel(j.ID()); !errors.Is(err, ErrFinished) {
		t.Errorf("double cancel = %v", err)
	}
}

func TestCancelQueued(t *testing.T) {
	m := NewManager(Config{Workers: 1, Queue: 4})
	defer m.Shutdown(context.Background())

	release := make(chan struct{})
	blocker, _, _ := m.Submit(func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	}, SubmitOpts{})
	waitStatus(t, blocker, StatusRunning)

	var ran atomic.Bool
	queued, _, _ := m.Submit(func(ctx context.Context) (any, error) {
		ran.Store(true)
		return nil, nil
	}, SubmitOpts{})
	if queued.Status() != StatusQueued {
		t.Fatalf("status = %s", queued.Status())
	}
	if err := m.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	close(release)
	if _, err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// Give the worker a beat to drain; the cancelled job must be skipped.
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if ran.Load() {
		t.Error("cancelled queued job still ran")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	m := NewManager(Config{Workers: 1, Queue: 1})
	defer m.Shutdown(context.Background())

	release := make(chan struct{})
	block := func(ctx context.Context) (any, error) { <-release; return nil, nil }
	running, _, _ := m.Submit(block, SubmitOpts{})
	waitStatus(t, running, StatusRunning)
	if _, _, err := m.Submit(block, SubmitOpts{}); err != nil { // fills the queue
		t.Fatal(err)
	}
	if _, _, err := m.Submit(block, SubmitOpts{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	close(release)
}

func TestCacheHitSkipsRun(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer m.Shutdown(context.Background())

	var runs atomic.Int64
	fn := func(ctx context.Context) (any, error) {
		runs.Add(1)
		return "result", nil
	}
	j1, _, _ := m.Submit(fn, SubmitOpts{Key: "k1"})
	if res, err := j1.Wait(context.Background()); err != nil || res != "result" {
		t.Fatal(res, err)
	}
	j2, _, err := m.Submit(fn, SubmitOpts{Key: "k1"})
	if err != nil {
		t.Fatal(err)
	}
	snap := j2.Snapshot()
	if snap.Status != StatusDone || !snap.Cached || snap.Result != "result" {
		t.Fatalf("cached snapshot = %+v", snap)
	}
	if runs.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", runs.Load())
	}
	st := m.CacheStats()
	if st.Hits != 1 || st.Size != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFailedResultNotCached(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Shutdown(context.Background())

	var runs atomic.Int64
	fn := func(ctx context.Context) (any, error) {
		runs.Add(1)
		return nil, errors.New("transient")
	}
	j1, _, _ := m.Submit(fn, SubmitOpts{Key: "k"})
	j1.Wait(context.Background())
	j2, _, _ := m.Submit(fn, SubmitOpts{Key: "k"})
	j2.Wait(context.Background())
	if runs.Load() != 2 {
		t.Errorf("fn ran %d times, want 2 (failures must not be cached)", runs.Load())
	}
}

func TestJobTimeout(t *testing.T) {
	m := NewManager(Config{Workers: 1, JobTimeout: 20 * time.Millisecond})
	defer m.Shutdown(context.Background())

	j, _, _ := m.Submit(func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, SubmitOpts{})
	if _, err := j.Wait(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if j.Status() != StatusFailed {
		t.Errorf("status = %s", j.Status())
	}
}

func TestListAndCounts(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer m.Shutdown(context.Background())

	for i := 0; i < 3; i++ {
		j, _, err := m.Submit(func(ctx context.Context) (any, error) { return nil, nil }, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		j.Wait(context.Background())
	}
	list := m.List()
	if len(list) != 3 {
		t.Fatalf("list = %d jobs", len(list))
	}
	if list[0].ID != "j-1" || list[2].ID != "j-3" {
		t.Errorf("submission order lost: %v, %v", list[0].ID, list[2].ID)
	}
	if c := m.Counts(); c[StatusDone] != 3 {
		t.Errorf("counts = %v", c)
	}
	if _, ok := m.Get("j-2"); !ok {
		t.Error("Get(j-2) missed")
	}
	if _, ok := m.Get("nope"); ok {
		t.Error("Get(nope) hit")
	}
	if err := m.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel missing = %v", err)
	}
}

func TestRetentionPruning(t *testing.T) {
	m := NewManager(Config{Workers: 2, Queue: 16, Retain: 4})
	defer m.Shutdown(context.Background())

	for i := 0; i < 10; i++ {
		j, _, err := m.Submit(func(ctx context.Context) (any, error) { return nil, nil }, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		j.Wait(context.Background())
	}
	if n := len(m.List()); n > 4 {
		t.Errorf("retained %d jobs, want <= 4", n)
	}
}

func TestShutdownDrains(t *testing.T) {
	m := NewManager(Config{Workers: 2, Queue: 16})
	var done atomic.Int64
	var js []*Job
	for i := 0; i < 6; i++ {
		j, _, err := m.Submit(func(ctx context.Context) (any, error) {
			time.Sleep(5 * time.Millisecond)
			done.Add(1)
			return nil, nil
		}, SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if done.Load() != 6 {
		t.Errorf("drained %d/6 jobs", done.Load())
	}
	if _, _, err := m.Submit(func(ctx context.Context) (any, error) { return nil, nil }, SubmitOpts{}); !errors.Is(err, ErrShutdown) {
		t.Errorf("submit after shutdown = %v", err)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown = %v", err)
	}
	for _, j := range js {
		if j.Status() != StatusDone {
			t.Errorf("job %s = %s after drain", j.ID(), j.Status())
		}
	}
}

func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	started := make(chan struct{})
	j, _, _ := m.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}, SubmitOpts{})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown = %v", err)
	}
	if s := j.Status(); s != StatusCancelled {
		t.Errorf("job status = %s, want cancelled", s)
	}
}

func TestLRUCache(t *testing.T) {
	c := NewCache(2)
	c.Add("a", 1)
	c.Add("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 { // a is now most recent
		t.Fatal("get a")
	}
	c.Add("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should be evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should survive")
	}
	c.Add("a", 10) // update in place
	if v, _ := c.Get("a"); v != 10 {
		t.Error("update lost")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMapOrderAndDeterminism(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	got, err := Map(context.Background(), 8, items, func(ctx context.Context, x int) (int, error) {
		return x * x, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

// TestMapFirstErrorAborts pins Map's abort contract: no item starts after
// the first error is reported. Item 0 fails at once and every other item
// blocks until its ctx is cancelled, so before the error each worker can
// have started at most one item, and after it none may start: calls can
// never exceed workers, whatever the schedule. The rounds repeat the race
// between the error and the feeder handing out the next item: an item
// handed out after the error must be skipped, not started.
func TestMapFirstErrorAborts(t *testing.T) {
	items := make([]int, 50)
	for i := range items {
		items[i] = i
	}
	for workers := 1; workers <= 4; workers++ {
		for round := 0; round < 50; round++ {
			var calls atomic.Int64
			_, err := Map(context.Background(), workers, items, func(ctx context.Context, x int) (int, error) {
				calls.Add(1)
				if x == 0 {
					return 0, fmt.Errorf("bad item %d", x)
				}
				<-ctx.Done()
				return 0, ctx.Err()
			})
			if err == nil || !strings.Contains(err.Error(), "bad item 0") {
				t.Fatalf("workers %d round %d: err = %v, want the failing item's error", workers, round, err)
			}
			if n := calls.Load(); n > int64(workers) {
				t.Fatalf("workers %d round %d: %d items started, want at most %d (one per worker before the error)",
					workers, round, n, workers)
			}
		}
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	_, err := Map(context.Background(), 2, []int{1, 2, 3}, func(ctx context.Context, x int) (int, error) {
		if x == 2 {
			panic("worker blew up")
		}
		return x, nil
	})
	if err == nil || !strings.Contains(err.Error(), "worker blew up") {
		t.Fatalf("err = %v", err)
	}
}

func TestMapEmptyAndContext(t *testing.T) {
	if out, err := Map(context.Background(), 4, nil, func(ctx context.Context, x int) (int, error) { return x, nil }); err != nil || len(out) != 0 {
		t.Fatalf("empty map: %v, %v", out, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Map(ctx, 2, []int{1, 2}, func(ctx context.Context, x int) (int, error) {
		return x, ctx.Err()
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled map: %v", err)
	}
}
