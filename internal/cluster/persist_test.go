package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"artisan/internal/jobs"
)

// runCounter counts executor runs per payload value — the "side effect"
// the crash-recovery property audits for duplicates.
type runCounter struct {
	mu   sync.Mutex
	runs map[int]int
}

func newRunCounter() *runCounter { return &runCounter{runs: make(map[int]int)} }

func (c *runCounter) inc(v int) {
	c.mu.Lock()
	c.runs[v]++
	c.mu.Unlock()
}

func (c *runCounter) get(v int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs[v]
}

type testPayload struct {
	V int `json:"v"`
}

// testExecutor builds the standard test executor: Run doubles the
// payload value (after optionally blocking via gate for values in
// blocked) and counts the side effect.
func testExecutor(counter *runCounter, blocked map[int]bool, gate chan struct{}) Executor {
	return Executor{
		Run: func(ctx context.Context, payload json.RawMessage) (any, error) {
			var p testPayload
			if err := json.Unmarshal(payload, &p); err != nil {
				return nil, err
			}
			if blocked[p.V] {
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			counter.inc(p.V)
			return p.V * 2, nil
		},
		Decode: func(result json.RawMessage) (any, error) {
			var v int
			if err := json.Unmarshal(result, &v); err != nil {
				return nil, err
			}
			return v, nil
		},
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func payloadFor(v int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"v":%d}`, v))
}

// TestPersistCrashRecovery is the crash-recovery property test of the
// distributed serving tier: a store-backed manager is killed mid-batch
// (jobs done, jobs running, jobs still queued), the journal is reopened
// by a fresh manager, and after Replay every submitted job must reach a
// terminal state exactly once — completed jobs keep their journaled
// result (zero re-runs: exactly-once visibility), interrupted and queued
// jobs re-execute exactly once (at-least-once execution), and duplicate
// submissions after recovery are cache hits, not new side effects.
func TestPersistCrashRecovery(t *testing.T) {
	cases := []struct{ done, running, queued int }{
		{done: 3, running: 2, queued: 3},
		{done: 1, running: 1, queued: 5},
		{done: 5, running: 2, queued: 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("d%d_r%d_q%d", tc.done, tc.running, tc.queued), func(t *testing.T) {
			dir := t.TempDir()
			total := tc.done + tc.running + tc.queued

			// ---- Phase 1: run until mid-batch, then crash. ----
			store1, _, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			gate := make(chan struct{})
			t.Cleanup(func() { close(gate) }) // unstick abandoned phase-1 workers
			blocked := make(map[int]bool)
			for v := tc.done; v < tc.done+tc.running; v++ {
				blocked[v] = true
			}
			c1 := newRunCounter()
			// Exactly `running` workers: the blocked jobs pin every worker, so
			// later submissions provably stay queued.
			workers := tc.running
			if workers < 1 {
				workers = 1
			}
			m1 := jobs.NewManager(jobs.Config{Workers: workers, Queue: total + 4})
			pm1 := NewPersistentManager(m1, store1, testExecutor(c1, blocked, gate))

			submit := func(v int) {
				t.Helper()
				_, shared, err := pm1.Submit(payloadFor(v), jobs.SubmitOpts{
					Key: fmt.Sprintf("key-%d", v), Coalesce: true,
				})
				if err != nil || shared {
					t.Fatalf("submit %d: shared=%v err=%v", v, shared, err)
				}
			}
			for v := 0; v < tc.done; v++ {
				submit(v)
			}
			// Terminal records are journaled by watch goroutines; wait for
			// all of them before wedging the workers.
			waitFor(t, "done jobs journaled", func() bool { return len(readJobs(t, dir).Done) == tc.done })
			for v := tc.done; v < total; v++ {
				submit(v)
			}
			if tc.running > 0 {
				waitFor(t, "running jobs journaled as started", func() bool {
					interrupted := 0
					for _, p := range readJobs(t, dir).Pending {
						if p.Interrupted() {
							interrupted++
						}
					}
					return interrupted == tc.running
				})
			}
			// Crash: the journal closes with the batch mid-flight. The
			// abandoned manager's goroutines die with the test.
			if err := store1.Close(); err != nil {
				t.Fatal(err)
			}

			// ---- Phase 2: reopen, replay, drain. ----
			store2, rec2, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer store2.Close()
			c2 := newRunCounter()
			m2 := jobs.NewManager(jobs.Config{Workers: 2, Queue: total + 4})
			pm2 := NewPersistentManager(m2, store2, testExecutor(c2, nil, nil))
			stats, err := pm2.Replay(rec2)
			if err != nil {
				t.Fatal(err)
			}
			if stats.ResultsWarmed != tc.done {
				t.Errorf("ResultsWarmed = %d, want %d", stats.ResultsWarmed, tc.done)
			}
			if stats.Resubmitted != tc.running+tc.queued {
				t.Errorf("Resubmitted = %d, want %d", stats.Resubmitted, tc.running+tc.queued)
			}
			if stats.Interrupted != tc.running {
				t.Errorf("Interrupted = %d, want %d", stats.Interrupted, tc.running)
			}

			waitFor(t, "all jobs terminal after replay", func() bool { return len(readJobs(t, dir).Pending) == 0 })

			// Exactly once terminal: every logical job is done, none twice
			// (the fold keys on logical id, so a duplicate would surface as a
			// wrong Done count or a leftover pending entry).
			done := readJobs(t, dir).Done
			if len(done) != total {
				t.Fatalf("Done = %d jobs after recovery, want %d", len(done), total)
			}
			seen := map[string]bool{}
			for _, d := range done {
				if seen[d.ID] {
					t.Errorf("job %s terminal twice", d.ID)
				}
				seen[d.ID] = true
			}
			// No duplicate side effects: completed-before-crash jobs never
			// re-run; interrupted and queued jobs re-run exactly once.
			for v := 0; v < tc.done; v++ {
				if n := c2.get(v); n != 0 {
					t.Errorf("done-before-crash job %d re-ran %d times after recovery", v, n)
				}
			}
			for v := tc.done; v < total; v++ {
				if n := c2.get(v); n != 1 {
					t.Errorf("pending job %d ran %d times after recovery, want 1", v, n)
				}
			}

			// Exactly-once visibility: a duplicate of a completed job is a
			// cache hit with the journaled result — no new execution.
			j, shared, err := pm2.Submit(payloadFor(0), jobs.SubmitOpts{Key: "key-0", Coalesce: true})
			if err != nil {
				t.Fatal(err)
			}
			v, err := j.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := v.(int); !ok || got != 0 {
				t.Errorf("duplicate submit result = %v, want warmed 0", v)
			}
			if !shared && !j.Snapshot().Cached {
				t.Error("duplicate submit after recovery missed the warmed cache")
			}
			if n := c2.get(0); n != 0 {
				t.Errorf("duplicate submit re-ran job 0 %d times", n)
			}
		})
	}
}

// TestPersistFailedJobJournaled: a failing executor journals OpFail, and
// replay does not resurrect failed jobs.
func TestPersistFailedJobJournaled(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := jobs.NewManager(jobs.Config{Workers: 1, Queue: 8})
	pm := NewPersistentManager(m, store, Executor{
		Run: func(ctx context.Context, _ json.RawMessage) (any, error) {
			return nil, fmt.Errorf("kaput")
		},
	})
	j, _, err := pm.Submit(json.RawMessage(`{}`), jobs.SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err == nil {
		t.Fatal("want job error")
	}
	waitFor(t, "fail journaled", func() bool { return len(readJobs(t, dir).Pending) == 0 })
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, rec2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	pm2 := NewPersistentManager(jobs.NewManager(jobs.Config{Workers: 1, Queue: 8}), store2, Executor{
		Run: func(ctx context.Context, _ json.RawMessage) (any, error) {
			t.Error("failed job re-executed on replay")
			return nil, nil
		},
	})
	stats, err := pm2.Replay(rec2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resubmitted != 0 || stats.ResultsWarmed != 0 {
		t.Errorf("replay of a failed job = %+v, want nothing", stats)
	}
}

// TestPersistJournalOrder: with workers idle and eager to dequeue, every
// job's journal still reads submit, then start, then its terminal record
// — a worker never journals a start for a job whose submit record is not
// yet written. The large payloads widen the window in which the submit
// record is still being encoded after the job is already queued.
func TestPersistJournalOrder(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := jobs.NewManager(jobs.Config{Workers: 4, Queue: 64})
	pm := NewPersistentManager(m, store, testExecutor(newRunCounter(), nil, nil))
	pad := strings.Repeat("x", 64<<10)
	var js []*jobs.Job
	for i := 0; i < 48; i++ {
		payload := json.RawMessage(fmt.Sprintf(`{"v":%d,"pad":%q}`, i, pad))
		j, _, err := pm.Submit(payload, jobs.SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}
	for _, j := range js {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}
	ops := map[string][]Op{}
	if _, err := ScanJournal(JournalPath(dir), func(rec Record) {
		ops[rec.ID] = append(ops[rec.ID], rec.Op)
	}, nil); err != nil {
		t.Fatal(err)
	}
	want := []Op{OpSubmit, OpStart, OpDone}
	for _, j := range js {
		if got := ops[j.ID()]; !reflect.DeepEqual(got, want) {
			t.Errorf("job %s journaled %v, want %v", j.ID(), got, want)
		}
	}
}

// slowJSON is a job result that takes a while to encode, which keeps
// its job's watcher busy journaling the done record after the job is
// already acknowledged.
type slowJSON struct{ v any }

func (s slowJSON) MarshalJSON() ([]byte, error) {
	time.Sleep(10 * time.Millisecond)
	return json.Marshal(s.v)
}

// TestPersistCloseJournalsResults: a graceful stop (drain the manager,
// then Close) journals every acknowledged result before the store
// closes, so after reopening each replays as done — a cache hit, not a
// re-run — and nothing is left pending. Submits after Close are refused.
func TestPersistCloseJournalsResults(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	counter := newRunCounter()
	m := jobs.NewManager(jobs.Config{Workers: 2, Queue: 32})
	ex := testExecutor(counter, nil, nil)
	run := ex.Run
	ex.Run = func(ctx context.Context, payload json.RawMessage) (any, error) {
		v, err := run(ctx, payload)
		return slowJSON{v}, err
	}
	pm := NewPersistentManager(m, store, ex)
	const n = 24
	for i := 0; i < n; i++ {
		j, _, err := pm.Submit(payloadFor(i), jobs.SubmitOpts{Key: fmt.Sprint("k", i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pm.Submit(payloadFor(n), jobs.SubmitOpts{}); !errors.Is(err, jobs.ErrShutdown) {
		t.Errorf("submit after Close = %v, want jobs.ErrShutdown", err)
	}

	store2, rec2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got := len(rec2.Done); got != n {
		t.Errorf("reopened journal holds %d done jobs, want %d", got, n)
	}
	if got := len(rec2.Pending); got != 0 {
		t.Errorf("reopened journal holds %d pending jobs, want 0", got)
	}
	m2 := jobs.NewManager(jobs.Config{Workers: 2, Queue: 32})
	defer m2.Shutdown(context.Background())
	pm2 := NewPersistentManager(m2, store2, testExecutor(counter, nil, nil))
	stats, err := pm2.Replay(rec2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResultsWarmed != n || stats.Resubmitted != 0 {
		t.Errorf("replay = %+v, want %d results warmed and nothing resubmitted", stats, n)
	}
	for i := 0; i < n; i++ {
		if runs := counter.get(i); runs != 1 {
			t.Errorf("payload %d ran %d times, want 1", i, runs)
		}
	}
}

// TestReplayReservesJournaledIDs: Replay reserves every id the journal
// holds, so a restarted node mints its next id past them and never
// reuses a journaled one, even with "-j-" inside its node id.
func TestReplayReservesJournaledIDs(t *testing.T) {
	dir := t.TempDir()
	store, _, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Op: OpSubmit, ID: "eu-j-1-j-7", Key: "k7", Payload: payloadFor(7)},
		{Op: OpDone, ID: "eu-j-1-j-7", Result: json.RawMessage(`14`)},
		{Op: OpSubmit, ID: "eu-j-1-j-3", Key: "k3", Payload: payloadFor(3)},
	} {
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, rec2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := jobs.NewManager(jobs.Config{Workers: 1, Queue: 8, IDPrefix: "eu-j-1"})
	pm := NewPersistentManager(m, store2, testExecutor(newRunCounter(), nil, nil))
	if _, err := pm.Replay(rec2); err != nil {
		t.Fatal(err)
	}
	j, _, err := pm.Submit(payloadFor(9), jobs.SubmitOpts{Key: "k9"})
	if err != nil {
		t.Fatal(err)
	}
	// The resubmitted pending job took eu-j-1-j-8 in memory; the fresh
	// submission is the next one.
	if j.ID() != "eu-j-1-j-9" {
		t.Errorf("new job id %q, want eu-j-1-j-9", j.ID())
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := pm.Close(); err != nil {
		t.Fatal(err)
	}
}
