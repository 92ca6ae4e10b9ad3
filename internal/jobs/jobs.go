// Package jobs is the async execution layer of the Artisan service: a
// generic job manager with a fixed-size worker pool, a bounded pending
// queue with backpressure, per-job lifecycle driven by context
// cancellation, panic recovery inside workers, and an LRU result cache
// keyed by a caller-supplied canonical key. The server routes both the
// synchronous /design endpoint and the async /jobs API through one
// manager so service-wide concurrency stays bounded, and the experiment
// harness reuses the same pool primitives to fan trial runs out.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Status is a job lifecycle state.
type Status string

// The lifecycle: queued → running → done | failed | cancelled. A queued
// job may jump straight to cancelled.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Func is the unit of work. It must honour ctx cancellation to make
// DELETE /jobs/{id} and shutdown deadlines effective mid-run.
type Func func(ctx context.Context) (any, error)

// Sentinel errors surfaced to callers.
var (
	// ErrQueueFull is the backpressure signal: the pending queue is at
	// capacity and the job was rejected rather than blocking the caller.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrShutdown means the manager no longer accepts work.
	ErrShutdown = errors.New("jobs: manager shut down")
	// ErrNotFound means no job has the given id.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrFinished means the job already reached a terminal state.
	ErrFinished = errors.New("jobs: job already finished")
)

// Job is one tracked unit of work.
type Job struct {
	id        string
	fn        Func
	key       string
	requestID string

	mu       sync.Mutex
	status   Status
	result   any
	err      error
	cached   bool
	created  time.Time
	started  time.Time
	finished time.Time
	deadline time.Time // end-to-end budget; zero = none
	cancel   context.CancelFunc
	done     chan struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Status returns the current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Snapshot is a consistent copy of a job's observable state.
type Snapshot struct {
	ID     string
	Status Status
	Cached bool
	Result any
	Err    string
	// RequestID correlates the job with the HTTP request that submitted
	// it (the X-Request-ID header); empty for jobs submitted outside a
	// request context.
	RequestID string
	Created   time.Time
	Started   time.Time
	Finished  time.Time
	// Deadline is the job's end-to-end budget (zero when none): the
	// instant the submitting client stops caring about the result.
	Deadline time.Time
}

// Snapshot copies the job's state under its lock.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID: j.id, Status: j.status, Cached: j.cached, Result: j.result,
		RequestID: j.requestID, Created: j.created, Started: j.started,
		Finished: j.finished, Deadline: j.deadline,
	}
	if j.err != nil {
		s.Err = j.err.Error()
	}
	return s
}

// Wait blocks until the job reaches a terminal state or ctx expires,
// returning the result and error of the run.
func (j *Job) Wait(ctx context.Context) (any, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == StatusCancelled && j.err == nil {
		return nil, context.Canceled
	}
	return j.result, j.err
}

// finish transitions to a terminal state exactly once.
func (j *Job) finish(st Status, result any, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Terminal() {
		return false
	}
	j.status, j.result, j.err = st, result, err
	j.finished = time.Now()
	close(j.done)
	return true
}

// Config sizes a Manager. Zero values take defaults.
type Config struct {
	// Workers is the pool size; default runtime.GOMAXPROCS(0).
	Workers int
	// Queue bounds the pending queue; Submit rejects with ErrQueueFull
	// beyond it. Default 64.
	Queue int
	// CacheSize bounds the LRU result cache entries. Default 128.
	CacheSize int
	// JobTimeout, when positive, is a per-job deadline; jobs exceeding
	// it fail with context.DeadlineExceeded.
	JobTimeout time.Duration
	// Retain bounds how many terminal jobs are kept for GET /jobs
	// introspection before the oldest are pruned. Default 1024.
	Retain int
	// IDPrefix, when set, prefixes job ids as "<prefix>-j-<n>". In a
	// multi-node fleet the prefix is the node id, which makes job ids
	// unique fleet-wide and lets the router map an id back to its owner.
	IDPrefix string
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue < 1 {
		c.Queue = 64
	}
	if c.CacheSize < 1 {
		c.CacheSize = 128
	}
	if c.Retain < 1 {
		c.Retain = 1024
	}
	return c
}

// Manager owns the worker pool, the job registry, and the result cache.
type Manager struct {
	cfg   Config
	cache *Cache

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *Job
	wg         sync.WaitGroup

	// coalesceHits counts submissions that attached to an identical
	// in-flight job instead of enqueueing their own run.
	coalesceHits atomic.Int64

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for List and pruning
	seq    int64
	closed bool
	// inflight is the singleflight map behind request coalescing: for
	// each cache key with Coalesce set, the one non-terminal job that is
	// computing it. Later coalescing submissions with the same key share
	// that job; the entry is dropped when the job reaches a terminal
	// state (so a retry after failure starts a fresh run).
	inflight map[string]*Job
}

// NewManager starts the worker pool.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		cache:      NewCache(cfg.CacheSize),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *Job, cfg.Queue),
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// Workers reports the pool size.
func (m *Manager) Workers() int { return m.cfg.Workers }

// jobID formats the next job id; must run with m.mu held (reads m.seq).
func (m *Manager) jobID() string {
	if m.cfg.IDPrefix != "" {
		return fmt.Sprintf("%s-j-%d", m.cfg.IDPrefix, m.seq)
	}
	return fmt.Sprintf("j-%d", m.seq)
}

// ReserveIDs advances the job-id counter so the next minted id's
// sequence number is above n. The persistence layer calls this after a
// journal replay with the highest sequence it has ever journaled:
// without it a restarted process would restart the counter at 1 and a
// brand-new job could reuse the logical id of a pre-crash job, silently
// merging two different jobs' histories in the journal.
func (m *Manager) ReserveIDs(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n > m.seq {
		m.seq = n
	}
}

// WarmCache installs a result directly into the result cache — the
// replay path of the persistent job store re-publishes journaled
// results through it, so a request that duplicates pre-restart work is
// a cache hit instead of a re-run.
func (m *Manager) WarmCache(key string, val any) {
	if key == "" {
		return
	}
	m.cache.Add(key, val)
}

// SubmitOpts tunes one submission.
type SubmitOpts struct {
	// Key, when non-empty, is the canonical cache key for the job's
	// result. A cache hit completes the job instantly without running
	// fn; a successful run stores its result under the key.
	Key string
	// RequestID tags the job with the correlation id of the request that
	// submitted it, so a queued job can be matched to its access-log
	// line.
	RequestID string
	// Coalesce, with a non-empty Key, deduplicates in-flight work
	// singleflight-style: when another coalescing job with the same key
	// is queued or running, the submission attaches to it instead of
	// enqueueing a second run and the shared *Job is returned. Combined
	// with the result cache this makes identical work run at most once,
	// whether the duplicates arrive before, during, or after the first.
	Coalesce bool
	// Deadline, when non-zero, is the job's end-to-end budget. A job
	// whose deadline passes while it is still queued is cancelled instead
	// of run (the client already gave up — running it would orphan work),
	// and a running job's context carries the deadline so fn stops at the
	// budget's edge rather than the pool's JobTimeout.
	Deadline time.Time
}

// Submit enqueues fn. It never blocks: when the pending queue is full it
// returns ErrQueueFull so the caller can shed load. The bool reports
// whether the returned job is a shared in-flight job another submission
// already started (only possible with opts.Coalesce). Cancelling a
// shared job cancels it for every waiter attached to it.
func (m *Manager) Submit(fn Func, opts SubmitOpts) (*Job, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, ErrShutdown
	}
	if opts.Key != "" {
		if v, ok := m.cache.Get(opts.Key); ok {
			m.seq++
			j := &Job{
				id:        m.jobID(),
				fn:        fn,
				key:       opts.Key,
				requestID: opts.RequestID,
				status:    StatusDone,
				cached:    true,
				result:    v,
				created:   time.Now(),
				done:      make(chan struct{}),
			}
			j.started, j.finished = j.created, j.created
			close(j.done)
			m.register(j)
			return j, false, nil
		}
		if opts.Coalesce {
			// A leader stays in the map from its terminal transition until
			// unflight runs; attaching in that gap would hand a failed or
			// cancelled result to a fresh submission, so only a live leader
			// is shared.
			if leader, ok := m.inflight[opts.Key]; ok && !leader.Status().Terminal() {
				m.coalesceHits.Add(1)
				return leader, true, nil
			}
		}
	}
	m.seq++
	j := &Job{
		id:        m.jobID(),
		fn:        fn,
		key:       opts.Key,
		requestID: opts.RequestID,
		status:    StatusQueued,
		created:   time.Now(),
		deadline:  opts.Deadline,
		done:      make(chan struct{}),
	}
	select {
	case m.queue <- j:
		m.register(j)
		if opts.Coalesce && opts.Key != "" {
			m.inflight[opts.Key] = j
		}
		return j, false, nil
	default:
		return nil, false, ErrQueueFull
	}
}

// unflight drops a terminal job from the coalescing map. The identity
// check makes the call safe for jobs that never entered the map: a
// non-coalescing job with the same key must not evict the live leader.
func (m *Manager) unflight(j *Job) {
	if j.key == "" {
		return
	}
	m.mu.Lock()
	if m.inflight[j.key] == j {
		delete(m.inflight, j.key)
	}
	m.mu.Unlock()
}

// CoalesceHits reports how many submissions attached to an identical
// in-flight job instead of running their own copy of the work.
func (m *Manager) CoalesceHits() int64 { return m.coalesceHits.Load() }

// register must run with m.mu held.
func (m *Manager) register(j *Job) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	// Prune the oldest terminal jobs beyond the retention bound so the
	// registry cannot grow without limit under sustained traffic.
	for len(m.order) > m.cfg.Retain {
		pruned := false
		for i, id := range m.order {
			if old, ok := m.jobs[id]; ok && old.Status().Terminal() {
				delete(m.jobs, id)
				m.order = append(m.order[:i], m.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			break // everything live; keep them all
		}
	}
}

// Get looks a job up by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List snapshots all retained jobs in submission order.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	js := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.jobs[id]; ok {
			js = append(js, j)
		}
	}
	m.mu.Unlock()
	out := make([]Snapshot, len(js))
	for i, j := range js {
		out[i] = j.Snapshot()
	}
	return out
}

// Counts tallies jobs by status.
func (m *Manager) Counts() map[Status]int {
	counts := make(map[Status]int)
	for _, s := range m.List() {
		counts[s.Status]++
	}
	return counts
}

// Cancel stops a job: a queued job is marked cancelled immediately; a
// running job has its context cancelled (the worker records the terminal
// state when fn returns). Cancelling a finished job returns ErrFinished.
func (m *Manager) Cancel(id string) error {
	j, ok := m.Get(id)
	if !ok {
		return ErrNotFound
	}
	j.mu.Lock()
	switch {
	case j.status.Terminal():
		j.mu.Unlock()
		return ErrFinished
	case j.status == StatusRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default: // queued: finish here; the worker skips it on dequeue
		j.status = StatusCancelled
		j.finished = time.Now()
		close(j.done)
		j.mu.Unlock()
		m.unflight(j)
		return nil
	}
}

// CacheStats reports the result cache's hit/miss counters and size.
func (m *Manager) CacheStats() CacheStats { return m.cache.Stats() }

// QueueDepth reports how many submitted jobs are waiting for a worker
// right now — the direct saturation signal (previously only observable
// via ErrQueueFull rejects). Exposed as a gauge on /metrics.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// QueueCapacity reports the pending-queue bound.
func (m *Manager) QueueCapacity() int { return m.cfg.Queue }

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.run(j)
	}
}

// run executes one job with panic recovery and cancellation handling.
func (m *Manager) run(j *Job) {
	j.mu.Lock()
	if j.status.Terminal() { // cancelled while queued
		j.mu.Unlock()
		return
	}
	if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
		// The budget expired while the job sat in the queue: the client is
		// gone, so cancel instead of running — an expired job that still
		// executes is exactly the orphaned work a deadline exists to stop.
		j.mu.Unlock()
		j.finish(StatusCancelled, nil, fmt.Errorf("jobs: deadline budget exhausted before start: %w", context.DeadlineExceeded))
		m.unflight(j)
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	if m.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(m.baseCtx, m.cfg.JobTimeout)
	}
	if !j.deadline.IsZero() {
		dctx, dcancel := context.WithDeadline(ctx, j.deadline)
		inner := cancel
		ctx, cancel = dctx, func() { dcancel(); inner() }
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()

	result, err := m.invoke(ctx, j)
	switch {
	case err == nil:
		if j.key != "" {
			m.cache.Add(j.key, result)
		}
		j.finish(StatusDone, result, nil)
	case errors.Is(err, context.Canceled) || errors.Is(ctx.Err(), context.Canceled):
		j.finish(StatusCancelled, nil, err)
	default:
		j.finish(StatusFailed, nil, err)
	}
	// Drop the coalescing-map entry only after the terminal state (and,
	// on success, the cache entry) is visible: a same-key submission
	// observing the gap lands on the cache, not on a second run.
	m.unflight(j)
}

// invoke calls fn, converting a panic into an error so one bad job
// cannot take a worker (or the process) down.
func (m *Manager) invoke(ctx context.Context, j *Job) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("jobs: job %s panicked: %v", j.id, r)
		}
	}()
	return j.fn(ctx)
}

// Shutdown stops intake, drains queued and running jobs, and waits for
// the workers to exit. If ctx expires first, running jobs are cancelled
// via their contexts and the ctx error is returned.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.queue)
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		m.baseCancel() // interrupt running jobs
		<-drained
		return ctx.Err()
	}
}
