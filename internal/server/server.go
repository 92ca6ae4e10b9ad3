// Package server exposes the Artisan framework as a JSON HTTP service —
// the "released for public access" form of the paper's abstract. The API
// is deliberately small: design from a spec group or a natural-language
// prompt (synchronously via POST /design or asynchronously via the
// /jobs API), simulate a netlist, and introspect the knowledge base.
//
// All design work — synchronous and asynchronous alike — is routed
// through one jobs.Manager worker pool, so service-wide design
// concurrency is bounded and repeated requests hit the LRU result cache
// instead of re-running the multi-agent session.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"mime"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"artisan/internal/agents"
	"artisan/internal/backend"
	"artisan/internal/cluster"
	"artisan/internal/core"
	"artisan/internal/experiment"
	"artisan/internal/jobs"
	"artisan/internal/llm"
	"artisan/internal/measure"
	"artisan/internal/netlist"
	"artisan/internal/resilience"
	"artisan/internal/spec"
	"artisan/internal/telemetry"
)

// maxBodyBytes bounds every POST body.
const maxBodyBytes = 1 << 20 // 1 MiB

// traceCapacity bounds the ring buffer of recent design traces served by
// GET /traces.
const traceCapacity = 64

// Options configures the service.
type Options struct {
	// Workers sizes the design worker pool; default GOMAXPROCS.
	Workers int
	// Queue bounds the pending job queue; default 64.
	Queue int
	// CacheSize bounds the design-result LRU cache; default 128.
	CacheSize int
	// JobTimeout, when positive, deadline-bounds each design run.
	JobTimeout time.Duration
	// RetryMax bounds retry attempts per designer/simulator call inside a
	// design session; default 3.
	RetryMax int
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit breaker guarding the simulator and sizer backends; default 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before probing;
	// default 5s.
	BreakerCooldown time.Duration
	// ToolTimeout, when positive, deadline-bounds each individual tool or
	// designer attempt (the per-attempt deadline of the retry policy).
	ToolTimeout time.Duration
	// FaultRate, when positive, runs the service in chaos mode: every
	// designer and simulator call fails with this probability, injected
	// by a seeded injector derived from each request's seed.
	FaultRate float64
	// AccessLog, when non-nil, receives one structured line per request
	// (request id, method, route, status, bytes, latency).
	AccessLog *slog.Logger
	// MaxBatch bounds the item count of one POST /design/batch or
	// POST /simulate/batch request (oversized batches get 413); default 64.
	MaxBatch int
	// NodeID names this node in a multi-node fleet: job ids are prefixed
	// "<NodeID>-j-<n>" (fleet-unique, so the router can map an id back to
	// its owner) and /healthz reports it for the router's membership map.
	NodeID string
	// DataDir, when set, enables the persistent job store: design
	// submissions and state transitions are journaled under this
	// directory, and on startup the journal is replayed — completed
	// results re-warm the cache, interrupted jobs re-execute.
	DataDir string
	// StoreSync fsyncs every journal append (machine-crash durability at
	// a latency cost; default off — process-crash durability only).
	StoreSync bool
	// TenantRate, when positive, enables per-tenant admission control:
	// each tenant (X-Tenant header; "default" when absent) may submit
	// this many design items per second sustained.
	TenantRate float64
	// TenantBurst is the admission token-bucket depth; default 2*TenantRate.
	TenantBurst float64
	// ModelLatency, when positive, models the remote designer-LLM call
	// latency inside each non-cached design run (the paper's deployment
	// calls a remote fine-tuned GPT; the in-process domain model is
	// instant). The chaos fleet uses it to give each design run a
	// duration that kills and partitions can interrupt, and
	// artisan-server exposes it as -model-latency.
	ModelLatency time.Duration
	// StoreWriteFault, when non-nil, is injected into the persistent
	// store as a simulated disk failure (see cluster.StoreOptions
	// .WriteFault). Chaos-test hook; nil in production.
	StoreWriteFault func() error
	// SizingBackend is the default sizing backend for tuned design
	// requests that do not name one ("bo", "ga", "whitebox", "hybrid");
	// empty means backend.DefaultName. Requests can override it with the
	// "backend" field.
	SizingBackend string
}

// Server holds the service configuration.
type Server struct {
	mux  *http.ServeMux
	jobs *jobs.Manager
	opts Options
	// counters aggregates resilience events service-wide; each design
	// session's per-run counters are merged in when the session ends.
	counters *resilience.Counters
	// breaker guards the simulator/sizer backends across all sessions, so
	// a failure streak in one session short-circuits the next.
	breaker *resilience.Breaker

	// Telemetry: the metric registry behind GET /metrics, the trace ring
	// behind GET /traces, the per-route HTTP instruments, the design
	// outcome counters, and the optional access logger. See metrics.go.
	reg           *telemetry.Registry
	tracer        *telemetry.Tracer
	httpm         *telemetry.HTTPMetrics
	accessLog     *slog.Logger
	designs       *telemetry.CounterVec
	designSeconds *telemetry.Histogram

	// Sizing-backend instruments: which backend served each tuned design
	// (post-ladder, so a degraded run counts under its fallback) and how
	// many simulator evaluations the winning backend spent.
	sizingBackends *telemetry.CounterVec
	sizingEvals    *telemetry.Histogram

	// Groundedness-verifier verdicts over Verify-flagged design runs.
	groundChecks *telemetry.CounterVec

	// Batch-serving instruments: items per batch request, per-item
	// latency from batch submit to completion, and per-item outcomes.
	// See batch.go for the endpoints they observe.
	batchSize        *telemetry.Histogram
	batchItemSeconds *telemetry.HistogramVec
	batchItems       *telemetry.CounterVec

	// Distributed serving tier (see internal/cluster): the persistent
	// job store (nil without Options.DataDir), per-tenant admission
	// control and the priority queue in front of the pool (nil without
	// Options.TenantRate), and the draining flag /healthz flips to 503
	// on so a router pulls the node from rotation before its queue
	// closes.
	persist   *cluster.PersistentManager
	replay    cluster.ReplayStats // the journal replay NewServer ran; /stats reads it
	admission *cluster.Admission
	pqueue    *cluster.PQueue
	draining  atomic.Bool

	// Admission instruments: items admitted/shed per tenant and the
	// per-tenant wait-queue depth.
	admits      *telemetry.CounterVec
	sheds       *telemetry.CounterVec
	tenantQueue *telemetry.GaugeVec
}

// New builds the service with default options.
func New() *Server { return NewWithOptions(Options{}) }

// NewWithOptions builds the service with all routes registered. It
// panics when the persistent job store cannot be opened — use NewServer
// when Options.DataDir is set and the error should be handled.
func NewWithOptions(o Options) *Server {
	s, err := NewServer(o)
	if err != nil {
		panic(err)
	}
	return s
}

// NewServer builds the service with all routes registered, including
// the distributed-tier wiring (persistent store replay, admission
// control) when the corresponding options are set.
func NewServer(o Options) (*Server, error) {
	if o.RetryMax < 1 {
		o.RetryMax = 3
	}
	if o.BreakerThreshold < 1 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.MaxBatch < 1 {
		o.MaxBatch = 64
	}
	if o.SizingBackend != "" {
		if _, err := backend.Get(o.SizingBackend); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	counters := &resilience.Counters{}
	s := &Server{
		mux: http.NewServeMux(),
		jobs: jobs.NewManager(jobs.Config{
			Workers: o.Workers, Queue: o.Queue,
			CacheSize: o.CacheSize, JobTimeout: o.JobTimeout,
			IDPrefix: o.NodeID,
		}),
		opts:     o,
		counters: counters,
		breaker: resilience.NewBreaker(resilience.BreakerConfig{
			Threshold: o.BreakerThreshold, Cooldown: o.BreakerCooldown,
			Counters: counters,
		}),
	}
	s.admission = cluster.NewAdmission(cluster.AdmissionConfig{
		Rate: o.TenantRate, Burst: o.TenantBurst,
	})
	s.initTelemetry(o)
	if s.admission != nil {
		// The lease pool covers the workers plus the pending queue; the
		// wait queue in front of it is deliberately small — overload
		// should shed quickly, not build unbounded latency.
		workers, queue := o.Workers, o.Queue
		if workers < 1 {
			workers = runtime.GOMAXPROCS(0)
		}
		if queue < 1 {
			queue = 64
		}
		s.pqueue = cluster.NewPQueue(workers+queue, queue, func(tenant string, depth int) {
			s.tenantQueue.With(tenant).Set(float64(depth))
		})
	}
	if o.DataDir != "" {
		store, recovered, err := cluster.OpenStore(o.DataDir, cluster.StoreOptions{
			Sync: o.StoreSync, WriteFault: o.StoreWriteFault,
		})
		if err != nil {
			return nil, err
		}
		// Reserve the id space the journal already holds: a restarted
		// process otherwise restarts the manager's counter at 1 and a new
		// job can mint a logical id the journal has already seen, merging
		// two unrelated jobs' histories.
		s.jobs.ReserveIDs(maxJobSeq(recovered.IDs))
		s.persist = cluster.NewPersistentManager(s.jobs, store, cluster.Executor{
			Run:    s.runPersistedDesign,
			Decode: decodePersistedDesign,
		})
		if s.replay, err = s.persist.Replay(recovered); err != nil {
			_ = store.Close()
			return nil, fmt.Errorf("server: journal replay: %w", err)
		}
		s.initStoreMetrics(store)
	}
	s.handle("GET /healthz", http.HandlerFunc(s.handleHealth))
	s.handle("GET /stats", http.HandlerFunc(s.handleStats))
	s.handle("GET /metrics", s.reg.Handler())
	s.handle("GET /traces", http.HandlerFunc(s.handleTraces))
	s.handle("GET /groups", http.HandlerFunc(s.handleGroups))
	s.handle("GET /architectures", http.HandlerFunc(s.handleArchitectures))
	s.handle("GET /topology/sample", http.HandlerFunc(s.handleTopologySample))
	s.handle("POST /design", http.HandlerFunc(s.handleDesign))
	s.handle("POST /design/batch", http.HandlerFunc(s.handleDesignBatch))
	s.handle("POST /simulate", http.HandlerFunc(s.handleSimulate))
	s.handle("POST /simulate/batch", http.HandlerFunc(s.handleSimulateBatch))
	s.handle("POST /jobs", http.HandlerFunc(s.handleJobSubmit))
	s.handle("GET /jobs", http.HandlerFunc(s.handleJobList))
	s.handle("GET /jobs/{id}", http.HandlerFunc(s.handleJobGet))
	s.handle("DELETE /jobs/{id}", http.HandlerFunc(s.handleJobCancel))
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StartDraining marks the node not-ready: /healthz answers 503 from now
// on, so a router health probe pulls the node out of rotation before
// the job queue actually closes. Call it on SIGTERM, ahead of Shutdown.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Draining reports whether the node is shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown marks the node draining, drains the design worker pool, and
// closes the persistent job store once every finished job's terminal
// record is journaled (used for graceful exit).
func (s *Server) Shutdown(ctx context.Context) error {
	s.StartDraining()
	err := s.jobs.Shutdown(ctx)
	if s.persist != nil {
		if cerr := s.persist.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Persist exposes the persistent manager (nil without Options.DataDir).
// The chaos harness reaches through it to crash-close a node's journal
// before the pool drains — making a "kill" drop un-flushed terminal
// records the way a real process death would.
func (s *Server) Persist() *cluster.PersistentManager { return s.persist }

// Jobs exposes the job manager for fleet introspection in tests.
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// maxJobSeq extracts the highest numeric suffix among journaled job ids
// ("<node>-j-<n>" or "j-<n>"); 0 when none parse.
func maxJobSeq(ids []string) int64 {
	var max int64
	for _, id := range ids {
		i := strings.LastIndex(id, "j-")
		if i < 0 {
			continue
		}
		n, err := strconv.ParseInt(id[i+2:], 10, 64)
		if err == nil && n > max {
			max = n
		}
	}
	return max
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeJSON hardens POST body handling: non-JSON Content-Type → 415,
// body over maxBodyBytes → 413, malformed JSON → 400. It reports whether
// decoding succeeded; on failure the error response is already written.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || (mt != "application/json" && !strings.HasSuffix(mt, "+json")) {
			writeErr(w, http.StatusUnsupportedMediaType,
				fmt.Errorf("unsupported Content-Type %q: use application/json", ct))
			return false
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err))
		return false
	}
	return true
}

// handleHealth is the readiness probe the router keys node membership
// on: 200 while serving, 503 the moment draining starts — before the
// job queue closes — so the router pulls the node from rotation instead
// of seeing mid-drain submit errors. The body always carries the node
// id so the router can map fleet-unique job ids back to their owner.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	out := map[string]any{
		"node":         s.opts.NodeID,
		"jobs":         s.jobs.Counts(),
		"queueDepth":   s.jobs.QueueDepth(),
		"cache":        s.jobs.CacheStats(),
		"coalesceHits": s.jobs.CoalesceHits(),
		"breaker":      s.breaker.State().String(),
		"resilience":   s.counters.Snapshot(),
	}
	if s.persist != nil {
		st := s.persist.Store().Stats()
		out["store"] = st
		if st.ReadOnly && status == http.StatusOK {
			// A poisoned store cannot durably accept work: report not-ready
			// so the router routes submissions to nodes that can.
			status = http.StatusServiceUnavailable
			state = "store-read-only"
		}
	}
	out["status"] = state
	writeJSON(w, status, out)
}

// handleStats surfaces the service-wide resilience counters, breaker
// state, queue saturation, admission control, journal replay totals,
// and the operating configuration — the observability face of the
// fault-tolerance and distributed layers.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"node":           s.opts.NodeID,
		"resilience":     s.counters.Snapshot(),
		"breaker":        s.breaker.State().String(),
		"jobs":           s.jobs.Counts(),
		"queueDepth":     s.jobs.QueueDepth(),
		"queue_depth":    s.jobs.QueueDepth(),
		"queue_capacity": s.jobs.QueueCapacity(),
		"cache":          s.jobs.CacheStats(),
		"coalesceHits":   s.jobs.CoalesceHits(),
		"config": map[string]any{
			"retryMax":         s.opts.RetryMax,
			"breakerThreshold": s.opts.BreakerThreshold,
			"toolTimeout":      s.opts.ToolTimeout.String(),
			"faultRate":        s.opts.FaultRate,
			"maxBatch":         s.opts.MaxBatch,
			"tenantRate":       s.opts.TenantRate,
		},
	}
	if s.admission != nil {
		admitted, shed := s.admission.Totals()
		out["admission"] = map[string]any{
			"admitted": admitted,
			"shed":     shed,
			"tenants":  s.admission.Snapshot(),
			"waiting":  s.pqueue.Waiting(),
		}
	}
	if s.persist != nil {
		store := s.persist.Store()
		out["replay"] = map[string]any{
			"resultsWarmed": s.replay.ResultsWarmed,
			"resubmitted":   s.replay.Resubmitted,
			"journalJobs":   store.Len(),
		}
		// Journal integrity: corrupt (quarantined) record count, legacy
		// frames, torn tail, and the read-only poison flag.
		out["store"] = store.Stats()
	}
	writeJSON(w, http.StatusOK, out)
}

// tenantOf resolves the admission tenant of a request: the X-Tenant
// header, or "default".
func tenantOf(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get("X-Tenant")); t != "" {
		return t
	}
	return "default"
}

// priorityOf resolves the X-Priority header, clamped to [0,9] (higher
// drains first under overload); absent or malformed means 0.
func priorityOf(r *http.Request) int {
	v, err := strconv.Atoi(strings.TrimSpace(r.Header.Get("X-Priority")))
	if err != nil || v < 0 {
		return 0
	}
	if v > 9 {
		return 9
	}
	return v
}

// retryAfterSeconds derives the Retry-After hint for shed and
// over-capacity responses from queue saturation: the deeper the pending
// queue relative to the worker pool, the longer a retry should wait.
// Clamped to [1,30] seconds.
func (s *Server) retryAfterSeconds() int {
	workers := s.jobs.Workers()
	if workers < 1 {
		workers = 1
	}
	secs := 1 + s.jobs.QueueDepth()/workers
	if secs > 30 {
		secs = 30
	}
	return secs
}

// writeShed writes a load-shedding response: status (429 or 503) plus a
// Retry-After header. A non-zero wait (from the tenant's token bucket)
// overrides the queue-derived hint.
func (s *Server) writeShed(w http.ResponseWriter, status int, wait time.Duration, err error) {
	secs := s.retryAfterSeconds()
	if wait > 0 {
		secs = int(math.Ceil(wait.Seconds()))
		if secs < 1 {
			secs = 1
		}
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeErr(w, status, err)
}

// admit runs the request through per-tenant admission control and the
// priority queue, charging items tokens. On success the returned
// release must be called when the admitted work reaches a terminal
// state; on shed the 429 response (with Retry-After) is already
// written. With admission disabled it is a no-op pass.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, items int) (release func(), ok bool) {
	if s.admission == nil {
		return func() {}, true
	}
	tenant := tenantOf(r)
	release, d, err := s.admission.AdmitN(r.Context(), s.pqueue, tenant, items, priorityOf(r))
	switch {
	case !d.OK:
		s.sheds.With(tenant, "rate").Add(float64(items))
		s.writeShed(w, http.StatusTooManyRequests, d.RetryAfter,
			fmt.Errorf("tenant %q over rate limit", tenant))
		return nil, false
	case errors.Is(err, cluster.ErrShed):
		s.sheds.With(tenant, "queue").Add(float64(items))
		s.writeShed(w, http.StatusTooManyRequests, 0, err)
		return nil, false
	case err != nil: // client gave up while waiting
		writeErr(w, http.StatusServiceUnavailable, err)
		return nil, false
	}
	s.admits.With(tenant).Add(float64(items))
	return release, true
}

// groupJSON is the wire form of a spec group.
type groupJSON struct {
	Name      string  `json:"name"`
	MinGainDB float64 `json:"minGainDB"`
	MinGBWHz  float64 `json:"minGBWHz"`
	MinPMDeg  float64 `json:"minPMDeg"`
	MaxPowerW float64 `json:"maxPowerW"`
	CLF       float64 `json:"clF"`
	Prompt    string  `json:"prompt"`
}

func (s *Server) handleGroups(w http.ResponseWriter, r *http.Request) {
	out := []groupJSON{}
	for _, g := range spec.Groups() {
		out = append(out, groupJSON{
			Name: g.Name, MinGainDB: g.MinGainDB, MinGBWHz: g.MinGBW,
			MinPMDeg: g.MinPM, MaxPowerW: g.MaxPower, CLF: g.CL,
			Prompt: g.Prompt(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleArchitectures(w http.ResponseWriter, r *http.Request) {
	type arch struct {
		Name      string  `json:"name"`
		MaxCLF    float64 `json:"maxCLF"`
		MaxGBWHz  float64 `json:"maxGBWHz"`
		Rationale string  `json:"rationale"`
	}
	out := []arch{}
	for _, p := range llm.DomainProfiles() {
		out = append(out, arch{Name: p.Arch, MaxCLF: p.MaxCL, MaxGBWHz: p.MaxGBW, Rationale: p.Rationale})
	}
	writeJSON(w, http.StatusOK, out)
}

// DesignRequest names core.Request, the design body, for this package's clients.
type DesignRequest = core.Request

// DesignResponse is the POST /design reply (and the result payload of a
// finished design job).
type DesignResponse struct {
	Success    bool              `json:"success"`
	Arch       string            `json:"arch,omitempty"`
	FailReason string            `json:"failReason,omitempty"`
	Metrics    *metricsJSON      `json:"metrics,omitempty"`
	FoM        float64           `json:"fom,omitempty"`
	Netlist    string            `json:"netlist,omitempty"`
	Transistor string            `json:"transistor,omitempty"`
	Transcript string            `json:"transcript,omitempty"`
	Session    map[string]int    `json:"session"`
	ModeledRun *modeledDurations `json:"modeledRuntime,omitempty"`
	// Grounded is the groundedness-verifier report (requests with Verify
	// set): every device/node/parameter the transcript cites, cross-
	// referenced against the produced netlist.
	Grounded *agents.GroundReport `json:"grounded,omitempty"`
	// Cached reports that the result came from the design cache rather
	// than a fresh agent session.
	Cached bool `json:"cached,omitempty"`
	// Degraded reports that the session fell back to the deterministic
	// retrieval model after repeated primary-designer failures.
	Degraded bool `json:"degraded,omitempty"`
	// Resilience carries the session's fault-tolerance counters when any
	// resilience event fired.
	Resilience *resilience.Snapshot `json:"resilience,omitempty"`
}

type metricsJSON struct {
	GainDB float64 `json:"gainDB"`
	GBWHz  float64 `json:"gbwHz"`
	PMDeg  float64 `json:"pmDeg"`
	PowerW float64 `json:"powerW"`
	Stable bool    `json:"stable"`
	F3dBHz float64 `json:"f3dBHz"`
	// GMdB is null when the phase never reaches −180° (infinite margin):
	// JSON has no representation for +Inf.
	GMdB    *float64 `json:"gmDB"`
	NumPole int      `json:"numPoles"`
	// PoleZeroErr is set when pole extraction failed: stable=false
	// then means "stability unknown", not "verified unstable".
	PoleZeroErr string `json:"poleZeroErr,omitempty"`
}

type modeledDurations struct {
	Artisan string `json:"artisan"`
}

// designFunc builds the pool job that runs the full workflow with the
// service's resilience ladder attached. Each run is traced into the
// server's ring buffer under a "server.design" root span (carrying the
// originating request id) and counted into artisan_designs_total and the
// design-duration histogram.
func (s *Server) designFunc(sp spec.Spec, req core.Request, requestID string) jobs.Func {
	group := req.Group
	if group == "" {
		group = "custom"
	}
	return func(ctx context.Context) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s.opts.ModelLatency > 0 {
			// Model the remote designer-LLM round trip (see Options).
			t := time.NewTimer(s.opts.ModelLatency)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}
		// The pool context is not the request context, so the tracer and
		// correlation id are attached here, at run time.
		ctx = telemetry.WithTracer(ctx, s.tracer)
		var span *telemetry.Span
		ctx, span = telemetry.StartSpan(ctx, "server.design")
		span.SetAttr("group", group)
		if requestID != "" {
			span.SetAttr("requestID", requestID)
		}
		start := time.Now()
		outcome := "error"
		defer func() {
			s.designSeconds.ObserveSince(start)
			s.designs.With("artisan", group, outcome).Inc()
			span.SetAttr("outcome", outcome)
			span.End()
		}()
		a := core.NewWithModel(llm.NewDomainModel(req.Seed, req.Temperature))
		a.Opts.TreeWidth = req.TreeWidth
		a.Opts.Tune = req.Tune
		a.Opts.SizingBackend = req.Backend
		// The reply carries transcript text only for these two fields, both
		// part of the cache key.
		a.Opts.NoTranscript = !req.Transcript && !req.Verify
		sessionCounters := &resilience.Counters{}
		// The events a session spent count service-wide whatever its
		// outcome, as the shared breaker's do.
		defer func() { s.counters.Merge(sessionCounters.Snapshot()) }()
		a.Res = &agents.Resilience{
			Retry: resilience.RetryPolicy{
				MaxAttempts: s.opts.RetryMax,
				BaseDelay:   10 * time.Millisecond,
				MaxDelay:    200 * time.Millisecond,
				PerAttempt:  s.opts.ToolTimeout,
				Seed:        req.Seed,
			},
			Breaker:  s.breaker,
			Fallback: llm.NewDomainModel(req.Seed, 0),
			Counters: sessionCounters,
		}
		if s.opts.FaultRate > 0 {
			a.Faults = resilience.NewInjector(resilience.InjectorConfig{
				Seed: req.Seed, ErrorRate: s.opts.FaultRate,
				Counters: sessionCounters})
		}
		out, err := a.Design(ctx, sp)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err // cancelled mid-run: discard the result
		}
		if out.Success {
			outcome = "success"
		} else {
			outcome = "fail"
		}
		if out.SizingBackend != "" {
			s.sizingBackends.With(out.SizingBackend, outcome).Inc()
			s.sizingEvals.Observe(float64(out.SizingEvals))
		}
		resp := &DesignResponse{
			Success:    out.Success,
			Arch:       out.Arch,
			FailReason: out.FailReason,
			Degraded:   out.Degraded,
			Session:    map[string]int{"qaSteps": out.QACount, "simulations": out.SimCount},
		}
		if out.Resilience != (resilience.Snapshot{}) {
			snap := out.Resilience
			resp.Resilience = &snap
		}
		if out.Success {
			resp.Metrics = toMetricsJSON(out.Report)
			resp.FoM = sp.FoMOf(out.Report)
			resp.Netlist = out.Netlist.String()
			if out.Transistor != nil {
				resp.Transistor = out.Transistor.String()
			}
			cm := experiment.DefaultCostModel()
			resp.ModeledRun = &modeledDurations{
				Artisan: cm.ArtisanTime(out.SimCount, out.QACount, true).Round(time.Second).String(),
			}
		}
		if req.Transcript {
			resp.Transcript = out.Transcript.Chat()
		}
		if req.Verify && out.Netlist != nil && out.Transcript != nil {
			gr := agents.VerifyGrounding(out.Transcript, out.Netlist)
			resp.Grounded = gr
			verdict := "pass"
			if !gr.Pass() {
				verdict = "fail"
			}
			s.groundChecks.With(verdict).Inc()
		}
		return resp, nil
	}
}

// persistedDesign is the journaled payload of one design job — enough
// to re-derive the jobs.Func after a restart.
type persistedDesign struct {
	Req       core.Request `json:"req"`
	RequestID string       `json:"requestID,omitempty"`
	// DeadlineUnixMs is the submitting client's end-to-end budget as a
	// wall-clock instant (0 = none). Journaled so a replay after a crash
	// still honours it: a job whose client gave up mid-outage is
	// cancelled on resume, not re-executed into the void.
	DeadlineUnixMs int64 `json:"deadlineUnixMs,omitempty"`
}

// runPersistedDesign is the executor behind the persistent job store:
// it rebuilds the design closure from a journaled payload and
// runs it. Fresh submissions go through the same path, so live and
// replayed runs are byte-identical.
func (s *Server) runPersistedDesign(ctx context.Context, payload json.RawMessage) (any, error) {
	var pd persistedDesign
	if err := json.Unmarshal(payload, &pd); err != nil {
		return nil, fmt.Errorf("server: corrupt persisted design: %w", err)
	}
	if pd.DeadlineUnixMs > 0 && time.Now().UnixMilli() >= pd.DeadlineUnixMs {
		// The budget expired (typically across a crash/replay gap): the
		// wrapped context.Canceled classifies the job as cancelled, the
		// same terminal state an expired queued job gets.
		return nil, fmt.Errorf("server: deadline budget exhausted before replayed run: %w", context.Canceled)
	}
	sp, err := pd.Req.Resolve(s.opts.SizingBackend)
	if err != nil {
		return nil, fmt.Errorf("server: persisted design no longer valid: %w", err)
	}
	return s.designFunc(sp, pd.Req, pd.RequestID)(ctx)
}

// decodePersistedDesign rehydrates a journaled result for cache
// warming.
func decodePersistedDesign(raw json.RawMessage) (any, error) {
	var resp DesignResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// deadlineOf resolves a request's X-Deadline-Ms end-to-end budget into
// a wall-clock deadline; zero when absent or malformed.
func deadlineOf(r *http.Request) time.Time {
	budget := cluster.ParseDeadlineMs(r.Header.Get(cluster.DeadlineHeader))
	if budget <= 0 {
		return time.Time{}
	}
	return time.Now().Add(budget)
}

// submitDesignJob enqueues one parsed design request, through the
// persistent store when enabled.
func (s *Server) submitDesignJob(sp spec.Spec, req core.Request, requestID string, coalesce bool, deadline time.Time) (*jobs.Job, bool, error) {
	opts := jobs.SubmitOpts{
		Key: req.Key(sp), RequestID: requestID,
		Coalesce: coalesce, Deadline: deadline,
	}
	if s.persist != nil {
		pd := persistedDesign{Req: req, RequestID: requestID}
		if !deadline.IsZero() {
			pd.DeadlineUnixMs = deadline.UnixMilli()
		}
		payload, err := json.Marshal(pd)
		if err != nil {
			return nil, false, err
		}
		return s.persist.Submit(payload, opts)
	}
	return s.jobs.Submit(s.designFunc(sp, req, requestID), opts)
}

// submitDesign validates, canonicalizes, admits, and enqueues a design
// request.
func (s *Server) submitDesign(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	var req core.Request
	if !decodeJSON(w, r, &req) {
		return nil, false
	}
	sp, err := req.Resolve(s.opts.SizingBackend)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil, false
	}
	release, ok := s.admit(w, r, 1)
	if !ok {
		return nil, false
	}
	requestID := telemetry.RequestIDOf(r.Context())
	j, _, err := s.submitDesignJob(sp, req, requestID, false, deadlineOf(r))
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		release()
		s.writeShed(w, http.StatusServiceUnavailable, 0, err)
		return nil, false
	case errors.Is(err, jobs.ErrShutdown):
		release()
		writeErr(w, http.StatusServiceUnavailable, err)
		return nil, false
	case errors.Is(err, cluster.ErrStoreReadOnly):
		// The journal cannot durably record the submission; refuse rather
		// than accept work that a crash would silently lose. /healthz is
		// already reporting the poisoned store, so the router will stop
		// sending submissions here.
		release()
		writeErr(w, http.StatusServiceUnavailable, err)
		return nil, false
	case err != nil:
		release()
		writeErr(w, http.StatusInternalServerError, err)
		return nil, false
	}
	// The admission lease spans the job's whole life — queued, running,
	// terminal — regardless of whether the caller waits (sync /design) or
	// polls (async /jobs). With admission off there is no lease, and a
	// job already terminal (a cache hit) holds it no longer: both give it
	// back here instead of starting a goroutine to wait.
	if s.admission == nil || j.Status().Terminal() {
		release()
		return j, true
	}
	go func() {
		defer release()
		_, werr := j.Wait(context.Background())
		_ = werr // the job's own state records the outcome
	}()
	return j, true
}

// handleDesign keeps the synchronous API: the request still runs on the
// shared pool (bounding server-wide concurrency and hitting the cache),
// but the handler waits for completion before replying.
func (s *Server) handleDesign(w http.ResponseWriter, r *http.Request) {
	j, ok := s.submitDesign(w, r)
	if !ok {
		return
	}
	res, err := j.Wait(r.Context())
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	resp := res.(*DesignResponse)
	if j.Snapshot().Cached {
		cp := *resp
		cp.Cached = true
		resp = &cp
	}
	writeJSON(w, http.StatusOK, resp)
}

// jobJSON is the wire form of a job snapshot.
type jobJSON struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// RequestID is the X-Request-ID of the submitting request, so a
	// queued job can be correlated with its access-log line and trace.
	RequestID string `json:"requestID,omitempty"`
	Created   string `json:"created"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
	// Deadline is the job's end-to-end budget (X-Deadline-Ms at submit),
	// surfaced so an operator can see which queued work is already dead.
	Deadline string `json:"deadline,omitempty"`
	Result   any    `json:"result,omitempty"`
}

func toJobJSON(s jobs.Snapshot, includeResult bool) jobJSON {
	out := jobJSON{
		ID: s.ID, Status: string(s.Status), Cached: s.Cached, Error: s.Err,
		RequestID: s.RequestID, Created: s.Created.UTC().Format(time.RFC3339Nano),
	}
	if !s.Deadline.IsZero() {
		out.Deadline = s.Deadline.UTC().Format(time.RFC3339Nano)
	}
	if !s.Started.IsZero() {
		out.Started = s.Started.UTC().Format(time.RFC3339Nano)
	}
	if !s.Finished.IsZero() {
		out.Finished = s.Finished.UTC().Format(time.RFC3339Nano)
	}
	if includeResult && s.Status == jobs.StatusDone {
		out.Result = s.Result
	}
	return out
}

// handleJobSubmit enqueues a design asynchronously: 202 + job id.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	j, ok := s.submitDesign(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusAccepted, toJobJSON(j.Snapshot(), false))
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, toJobJSON(j.Snapshot(), true))
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	snaps := s.jobs.List()
	list := []jobJSON{}
	for _, sn := range snaps {
		list = append(list, toJobJSON(sn, false))
	}
	counts := map[string]int{}
	for _, sn := range snaps {
		counts[string(sn.Status)]++
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs":   list,
		"counts": counts,
		"cache":  s.jobs.CacheStats(),
	})
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch err := s.jobs.Cancel(id); {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "cancelling"})
	case errors.Is(err, jobs.ErrNotFound):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, jobs.ErrFinished):
		writeErr(w, http.StatusConflict, err)
	default:
		writeErr(w, http.StatusInternalServerError, err)
	}
}

func toMetricsJSON(rep measure.Report) *metricsJSON {
	m := &metricsJSON{
		GainDB: rep.GainDB, GBWHz: rep.GBW, PMDeg: rep.PM, PowerW: rep.Power,
		Stable: rep.Stable, F3dBHz: rep.F3dB, NumPole: rep.NumPoles,
		PoleZeroErr: rep.PoleZeroErr,
	}
	if !math.IsInf(rep.GM, 0) && !math.IsNaN(rep.GM) {
		gm := rep.GM
		m.GMdB = &gm
	}
	return m
}

// SimulateRequest is the POST /simulate body.
type SimulateRequest struct {
	Netlist string `json:"netlist"`
	Out     string `json:"out,omitempty"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Out == "" {
		req.Out = "out"
	}
	nl, err := netlist.Parse(req.Netlist)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rep, err := measure.Analyze(nl, req.Out)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, toMetricsJSON(rep))
}
