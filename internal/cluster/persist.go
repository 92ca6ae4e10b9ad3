package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"artisan/internal/jobs"
)

// Executor runs and rehydrates persisted jobs. Run executes a job from
// its journaled payload; Decode turns a journaled result back into the
// in-memory value the result cache serves (so a replayed done job is
// indistinguishable from a live cache entry).
type Executor struct {
	Run    func(ctx context.Context, payload json.RawMessage) (any, error)
	Decode func(result json.RawMessage) (any, error)
}

// PersistentManager layers the Store onto a jobs.Manager: every
// acknowledged submission is journaled before the caller sees the job,
// state transitions are appended as they happen, and Replay rebuilds the
// manager after a restart — journaled results re-warm the result cache
// (exactly-once visibility: a duplicate request after restart is a cache
// hit, not a re-run) and non-terminal jobs are re-executed
// (at-least-once execution).
type PersistentManager struct {
	m     *jobs.Manager
	store *Store
	ex    Executor

	mu     sync.Mutex
	closed bool // set by Close; later submissions are refused

	// watchers counts submissions in flight and the watch goroutines
	// they hand their jobs to, so Close can wait for every terminal
	// record before it closes the store.
	watchers sync.WaitGroup
}

// NewPersistentManager wires a store onto a manager; ex runs every job
// submitted or replayed through it.
func NewPersistentManager(m *jobs.Manager, store *Store, ex Executor) *PersistentManager {
	return &PersistentManager{m: m, store: store, ex: ex}
}

// Store exposes the backing store (compaction, tests).
func (p *PersistentManager) Store() *Store { return p.store }

// Close journals every outstanding terminal record, then closes the
// store. Call it after the manager has drained (jobs.Manager.Shutdown):
// every watched job is then terminal, so the wait is bounded. Submits
// after Close fail with jobs.ErrShutdown.
func (p *PersistentManager) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.watchers.Wait()
	return p.store.Close()
}

// Submit journals and enqueues one job. Cache hits and coalesced
// attaches are not journaled — their result visibility is already
// guaranteed by the journaled leader. The submit record is durable
// before Submit returns, so an acknowledged job survives a crash.
func (p *PersistentManager) Submit(payload json.RawMessage, opts jobs.SubmitOpts) (*jobs.Job, bool, error) {
	return p.submit(payload, opts, "")
}

// submit is Submit plus the replay path: a non-empty logicalID marks a
// re-execution of an already-journaled job (an OpResume record instead
// of a fresh OpSubmit, keeping the journal's logical identity stable).
func (p *PersistentManager) submit(payload json.RawMessage, opts jobs.SubmitOpts, logicalID string) (*jobs.Job, bool, error) {
	// The submission counts as a watcher until it returns, so Close cannot
	// close the store between the enqueue and the journal records.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, jobs.ErrShutdown
	}
	p.watchers.Add(1)
	p.mu.Unlock()
	defer p.watchers.Done()
	// A worker may dequeue the job before the submit or resume record is
	// journaled, so the job waits at gate until submit returns: its start
	// record can never precede the record that introduces the job. id is
	// set only once that record is in the journal. (The gate lives as
	// long as the retained job, hence a WaitGroup rather than a channel.)
	var gate struct {
		sync.WaitGroup
		id string
	}
	gate.Add(1)
	defer gate.Done()
	fn := func(ctx context.Context) (any, error) {
		gate.Wait()
		if gate.id != "" {
			_ = p.store.Append(Record{Op: OpStart, ID: gate.id})
		}
		return p.ex.Run(ctx, payload)
	}
	j, shared, err := p.m.Submit(fn, opts)
	if err != nil {
		return nil, false, err
	}
	snap := j.Snapshot()
	if logicalID == "" {
		if shared || snap.Cached {
			return j, shared, nil // visibility covered by the journaled leader
		}
		logicalID = j.ID()
		if err := p.store.Append(Record{
			Op: OpSubmit, ID: logicalID, Key: opts.Key, Payload: payload,
		}); err != nil {
			// The job is already queued but cannot be made durable. Cancel it
			// so the rejected submission does not execute as a ghost — the
			// caller is about to tell the client "not accepted", and a store
			// poisoned mid-flight must not keep burning workers on work
			// nobody can ever replay or account for.
			_ = p.m.Cancel(j.ID())
			return nil, false, err
		}
	} else {
		// Replay: journal the resume — and keep watching even when the
		// resubmission completed instantly off the warmed cache or attached
		// to another replayed job with the same key. Skipping the terminal
		// record here would leave the job pending in the journal forever,
		// and every future restart would re-submit it.
		_ = p.store.Append(Record{Op: OpResume, ID: logicalID})
	}
	gate.id = logicalID
	p.watchers.Add(1) // while this submission still holds the count above zero
	go p.watch(logicalID, j)
	return j, shared, nil
}

// watch journals the terminal transition of one job.
func (p *PersistentManager) watch(logicalID string, j *jobs.Job) {
	defer p.watchers.Done()
	_, _ = j.Wait(context.Background())
	snap := j.Snapshot()
	rec := Record{ID: logicalID}
	switch snap.Status {
	case jobs.StatusDone:
		rec.Op = OpDone
		if blob, err := json.Marshal(snap.Result); err == nil {
			rec.Result = blob
		}
	case jobs.StatusCancelled:
		rec.Op = OpCancel
		rec.Err = snap.Err
	default:
		rec.Op = OpFail
		rec.Err = snap.Err
	}
	_ = p.store.Append(rec)
}

// ReplayStats summarizes one Replay pass.
type ReplayStats struct {
	// ResultsWarmed is how many journaled done results were reinstalled
	// into the result cache.
	ResultsWarmed int `json:"resultsWarmed"`
	// Resubmitted is how many non-terminal jobs were re-executed.
	Resubmitted int `json:"resubmitted"`
	// Interrupted of those were mid-run when the previous process died.
	Interrupted int `json:"interrupted"`
}

// Replay rebuilds serving state from the jobs OpenStore recovered:
// journaled done results are decoded and re-installed in the result
// cache under their original keys, then queued and interrupted jobs are
// resubmitted in their original order. Jobs whose key now hits the
// warmed cache complete instantly without re-running. Call once, before
// serving traffic.
func (p *PersistentManager) Replay(rec Recovered) (ReplayStats, error) {
	var stats ReplayStats
	for _, d := range rec.Done {
		if d.Key == "" || len(d.Result) == 0 || p.ex.Decode == nil {
			continue
		}
		v, err := p.ex.Decode(d.Result)
		if err != nil {
			return stats, fmt.Errorf("cluster: replay decode %s: %w", d.ID, err)
		}
		p.m.WarmCache(d.Key, v)
		stats.ResultsWarmed++
	}
	for _, pend := range rec.Pending {
		if pend.Interrupted() {
			stats.Interrupted++
		}
		if _, _, err := p.submit(pend.Payload, jobs.SubmitOpts{
			Key: pend.Key, Coalesce: pend.Key != "",
		}, pend.ID); err != nil {
			return stats, fmt.Errorf("cluster: replay resubmit %s: %w", pend.ID, err)
		}
		stats.Resubmitted++
	}
	return stats, nil
}
