package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m := NewManager(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return m
}

// batchItem is one unit of a test batch.
type batchItem struct {
	fn  Func
	key string
}

// batchEntry is one item's submission outcome.
type batchEntry struct {
	job       *Job
	coalesced bool
	err       error
}

// submitBatch submits every item in order with coalescing on, the way
// the server's batch endpoints submit theirs.
func submitBatch(m *Manager, items []batchItem) []batchEntry {
	out := make([]batchEntry, len(items))
	for i, it := range items {
		out[i].job, out[i].coalesced, out[i].err = m.Submit(it.fn, SubmitOpts{Key: it.key, Coalesce: true})
	}
	return out
}

// waitBatch waits for every entry in order; a rejected entry keeps its
// submission error.
func waitBatch(entries []batchEntry) ([]any, []error) {
	results := make([]any, len(entries))
	errs := make([]error, len(entries))
	for i, e := range entries {
		if e.err != nil {
			errs[i] = e.err
			continue
		}
		results[i], errs[i] = e.job.Wait(context.Background())
	}
	return results, errs
}

// A batch of duplicated keys runs each unique key's fn exactly once;
// every duplicate either coalesces onto the in-flight run or hits the
// result cache, and all of them observe the same result.
func TestSubmitBatchCoalescesDuplicates(t *testing.T) {
	m := newTestManager(t, Config{Workers: 4, Queue: 256, CacheSize: 64})
	var runs atomic.Int64
	mk := func(key string) batchItem {
		return batchItem{
			fn: func(ctx context.Context) (any, error) {
				runs.Add(1)
				time.Sleep(5 * time.Millisecond)
				return key, nil
			},
			key: key,
		}
	}
	var items []batchItem
	for i := 0; i < 24; i++ {
		items = append(items, mk(fmt.Sprintf("k-%d", i%3)))
	}
	entries := submitBatch(m, items)
	results, errs := waitBatch(entries)
	for i := range entries {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if want := fmt.Sprintf("k-%d", i%3); results[i] != want {
			t.Fatalf("item %d: result %v, want %v", i, results[i], want)
		}
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("fn ran %d times, want once per unique key (3)", got)
	}
	dedup := m.CoalesceHits() + m.CacheStats().Hits
	if dedup != int64(len(items))-3 {
		t.Errorf("coalesce(%d)+cache(%d) = %d deduped, want %d",
			m.CoalesceHits(), m.CacheStats().Hits, dedup, len(items)-3)
	}
}

// The property test of the coalescing layer: K unique specs duplicated
// across M concurrent submitters perform exactly one underlying run per
// unique key, under -race.
func TestConcurrentBatchesRunOncePerKey(t *testing.T) {
	const (
		uniqueKeys = 8
		submitters = 16
	)
	m := newTestManager(t, Config{Workers: 4, Queue: 4096, CacheSize: 64})
	var runs [uniqueKeys]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			order := rng.Perm(uniqueKeys)
			items := make([]batchItem, uniqueKeys)
			for i, k := range order {
				k := k
				items[i] = batchItem{
					fn: func(ctx context.Context) (any, error) {
						runs[k].Add(1)
						time.Sleep(3 * time.Millisecond)
						return k, nil
					},
					key: fmt.Sprintf("spec-%d", k),
				}
			}
			entries := submitBatch(m, items)
			results, errs := waitBatch(entries)
			for i := range entries {
				if errs[i] != nil {
					t.Errorf("submitter %d item %d: %v", g, i, errs[i])
					return
				}
				if results[i] != order[i] {
					t.Errorf("submitter %d item %d: result %v, want %d", g, i, results[i], order[i])
				}
			}
		}(g)
	}
	wg.Wait()
	for k := range runs {
		if got := runs[k].Load(); got != 1 {
			t.Errorf("key %d ran %d times, want exactly 1", k, got)
		}
	}
	dedup := m.CoalesceHits() + m.CacheStats().Hits
	if want := int64(uniqueKeys*submitters - uniqueKeys); dedup != want {
		t.Errorf("deduped %d submissions, want %d", dedup, want)
	}
}

// A failed leader is dropped from the coalescing map, so a later
// same-key submission retries instead of inheriting the stale failure.
func TestCoalesceClearsFailedLeader(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, Queue: 8, CacheSize: 4})
	boom := errors.New("boom")
	fail := batchItem{
		fn:  func(ctx context.Context) (any, error) { return nil, boom },
		key: "flaky",
	}
	entries := submitBatch(m, []batchItem{fail})
	if _, err := entries[0].job.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("leader err = %v, want boom", err)
	}
	ok := batchItem{
		fn:  func(ctx context.Context) (any, error) { return "fine", nil },
		key: "flaky",
	}
	entries = submitBatch(m, []batchItem{ok})
	if entries[0].coalesced {
		t.Error("retry coalesced onto the failed leader")
	}
	if v, err := entries[0].job.Wait(context.Background()); err != nil || v != "fine" {
		t.Fatalf("retry: %v, %v", v, err)
	}
}

// A finished leader wakes its waiters before the worker drops it from
// the coalescing map. A same-key submission landing in that gap must
// start its own run, not inherit the failure. The gap is a few
// instructions wide, so the test repeats the sequence, with GOMAXPROCS
// at least two so that the waiter and the worker run at once.
func TestCoalesceSkipsFinishedLeader(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	m := newTestManager(t, Config{Workers: 1, Queue: 8})
	boom := errors.New("boom")
	fail := func(ctx context.Context) (any, error) { return nil, boom }
	fine := func(ctx context.Context) (any, error) { return "fine", nil }
	const rounds = 5000
	attached := 0
	for i := 0; i < rounds; i++ {
		opts := SubmitOpts{Key: fmt.Sprint("k", i), Coalesce: true}
		leader, _, err := m.Submit(fail, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := leader.Wait(context.Background()); !errors.Is(err, boom) {
			t.Fatalf("round %d: leader err = %v, want boom", i, err)
		}
		retry, shared, err := m.Submit(fine, opts)
		if err != nil {
			t.Fatal(err)
		}
		if shared {
			attached++
		}
		if _, err := retry.Wait(context.Background()); err != nil && !shared {
			t.Fatalf("round %d: retry err = %v", i, err)
		}
	}
	if attached > 0 {
		t.Errorf("a retry attached to its failed leader in %d of %d rounds", attached, rounds)
	}
}

// Waiters detach on their own context without cancelling the shared job:
// the slow waiter's cancellation must not fail the fast one.
func TestCoalescedWaiterCancelDoesNotCancelJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, Queue: 8, CacheSize: 4})
	release := make(chan struct{})
	items := []batchItem{
		{fn: func(ctx context.Context) (any, error) { <-release; return 42, nil }, key: "shared"},
		{fn: func(ctx context.Context) (any, error) { return nil, errors.New("must not run") }, key: "shared"},
	}
	entries := submitBatch(m, items)
	if !entries[1].coalesced {
		t.Fatal("second item did not coalesce")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := entries[1].job.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v", err)
	}
	close(release)
	if v, err := entries[0].job.Wait(context.Background()); err != nil || v != 42 {
		t.Fatalf("leader: %v, %v", v, err)
	}
}
