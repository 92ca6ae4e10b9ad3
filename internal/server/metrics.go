package server

// Telemetry wiring: the server owns one telemetry.Registry and one
// telemetry.Tracer, folds the jobs and resilience state into the
// registry as callback instruments (so /stats and /metrics report from
// the same source of truth), and serves GET /metrics (Prometheus text)
// and GET /traces (recent design span trees as JSON).

import (
	"fmt"
	"net/http"
	"strconv"

	"artisan/internal/cluster"
	"artisan/internal/resilience"
	"artisan/internal/telemetry"
)

// designDurationBuckets spans 1 ms – ~1 h: design runs range from a
// cache-warm behavioral session to a full tuned multi-agent run.
var designDurationBuckets = telemetry.ExpBuckets(0.001, 4, 12)

// initTelemetry builds the registry, tracer, and instrument families and
// registers the callback instruments that mirror the jobs manager,
// result cache, resilience counters, and breaker into /metrics. Called
// once from NewWithOptions before routes are registered (the route
// middleware needs the HTTP instruments).
func (s *Server) initTelemetry(o Options) {
	s.reg = telemetry.NewRegistry()
	s.tracer = telemetry.NewTracer(traceCapacity)
	s.httpm = telemetry.NewHTTPMetrics(s.reg)
	s.accessLog = o.AccessLog

	s.designs = s.reg.CounterVec("artisan_designs_total",
		"Completed design runs, by designer model, spec group, and outcome (success|fail|error).",
		"method", "group", "outcome")
	s.designSeconds = s.reg.Histogram("artisan_design_duration_seconds",
		"Wall-clock duration of one design run in seconds.",
		designDurationBuckets)

	// Sizing backends: which backend actually served each tuned design
	// (the ladder may have degraded the requested one) and the simulator
	// evaluations the winning run consumed.
	s.sizingBackends = s.reg.CounterVec("artisan_sizing_backend_total",
		"Sizing-backend invocations, by winning backend and design outcome.",
		"backend", "outcome")
	s.sizingEvals = s.reg.Histogram("artisan_sizing_evals",
		"Simulator evaluations consumed by one sizing-backend run.",
		telemetry.ExpBuckets(1, 2, 12))

	// Groundedness checks: transcript-vs-netlist verification verdicts
	// for design requests that set Verify.
	s.groundChecks = s.reg.CounterVec("artisan_ground_checks_total",
		"Groundedness-verifier verdicts over Verify-flagged design runs.",
		"verdict")

	// Jobs: queue depth is the live saturation signal; the cache counters
	// mirror jobs.CacheStats so dashboards and /stats agree by
	// construction.
	s.reg.GaugeFunc("artisan_jobs_queue_depth",
		"Design jobs waiting for a worker.",
		func() float64 { return float64(s.jobs.QueueDepth()) })
	s.reg.GaugeFunc("artisan_jobs_queue_capacity",
		"Bound of the pending job queue.",
		func() float64 { return float64(s.jobs.QueueCapacity()) })
	s.reg.CounterFunc("artisan_jobs_cache_hits_total",
		"Design-result cache hits.",
		func() float64 { return float64(s.jobs.CacheStats().Hits) })
	s.reg.CounterFunc("artisan_jobs_cache_misses_total",
		"Design-result cache misses.",
		func() float64 { return float64(s.jobs.CacheStats().Misses) })
	s.reg.GaugeFunc("artisan_jobs_cache_size",
		"Entries currently in the design-result cache.",
		func() float64 { return float64(s.jobs.CacheStats().Size) })
	s.reg.CounterFunc("artisan_jobs_coalesce_hits_total",
		"Submissions that attached to an identical in-flight job instead of re-running it.",
		func() float64 { return float64(s.jobs.CoalesceHits()) })

	// Batch serving: the size distribution of batch requests, per-item
	// latency measured from batch submit to item completion, and item
	// outcomes by endpoint.
	s.batchSize = s.reg.Histogram("artisan_batch_size",
		"Items per batch request.",
		telemetry.ExpBuckets(1, 2, 10))
	s.batchItemSeconds = s.reg.HistogramVec("artisan_batch_item_seconds",
		"Latency from batch submit to per-item completion in seconds.",
		designDurationBuckets, "endpoint")
	s.batchItems = s.reg.CounterVec("artisan_batch_items_total",
		"Batch items served, by endpoint and outcome (ok|error).",
		"endpoint", "outcome")

	// Admission control: items admitted and shed per tenant (sheds split
	// by reason: over-rate vs wait-queue overflow), and the per-tenant
	// priority-queue depth. The aggregate funcs mirror the admission
	// controller's own counters so /stats and /metrics agree.
	s.admits = s.reg.CounterVec("artisan_admit_total",
		"Design items admitted, by tenant.", "tenant")
	s.sheds = s.reg.CounterVec("artisan_shed_total",
		"Design items shed with 429, by tenant and reason (rate|queue).",
		"tenant", "reason")
	s.tenantQueue = s.reg.GaugeVec("artisan_tenant_queue_depth",
		"Admitted requests waiting in the priority queue, by tenant.", "tenant")
	if s.admission != nil {
		s.reg.CounterFunc("artisan_admission_admitted_total",
			"Design items admitted across all tenants.",
			func() float64 {
				admitted, shed := s.admission.Totals()
				_ = shed
				return float64(admitted)
			})
		s.reg.CounterFunc("artisan_admission_shed_total",
			"Design items shed across all tenants.",
			func() float64 {
				admitted, shed := s.admission.Totals()
				_ = admitted
				return float64(shed)
			})
	}

	// Resilience: one labeled family over the service-wide counter
	// snapshot, one event per label value.
	events := []struct {
		name string
		read func(resilience.Snapshot) int64
	}{
		{"attempts", func(sn resilience.Snapshot) int64 { return sn.Attempts }},
		{"failures", func(sn resilience.Snapshot) int64 { return sn.Failures }},
		{"retries", func(sn resilience.Snapshot) int64 { return sn.Retries }},
		{"fallbacks", func(sn resilience.Snapshot) int64 { return sn.Fallbacks }},
		{"breaker_opens", func(sn resilience.Snapshot) int64 { return sn.BreakerOpens }},
		{"breaker_shorts", func(sn resilience.Snapshot) int64 { return sn.BreakerShorts }},
		{"injected", func(sn resilience.Snapshot) int64 { return sn.Injected }},
		{"hedges", func(sn resilience.Snapshot) int64 { return sn.Hedges }},
	}
	for _, e := range events {
		read := e.read
		s.reg.LabeledCounterFunc("artisan_resilience_events_total",
			"Service-wide fault-tolerance events, by event kind.",
			[]string{"event"}, []string{e.name},
			func() float64 { return float64(read(s.counters.Snapshot())) })
	}
	s.reg.GaugeFunc("artisan_breaker_state",
		"Circuit breaker state guarding the simulator/sizer backends (0=closed, 1=open, 2=half-open).",
		func() float64 { return float64(s.breaker.State()) })

	telemetry.RegisterRuntime(s.reg)
}

// initStoreMetrics registers the persistent store's integrity
// instruments: the corrupt-record counter the acceptance runbook keys
// on, the torn-tail flag, and the read-only poison gauge. Called from
// NewServer once the store exists (after initTelemetry — the store is
// opened later in construction).
func (s *Server) initStoreMetrics(store *cluster.Store) {
	s.reg.CounterFunc("artisan_store_corrupt_total",
		"Journal records that failed their CRC check and were quarantined during replay.",
		func() float64 { return float64(store.Stats().Journal.Corrupt) })
	s.reg.GaugeFunc("artisan_store_readonly",
		"1 when a failed append has poisoned the store into read-only mode.",
		func() float64 {
			if store.ReadOnly() {
				return 1
			}
			return 0
		})
	s.reg.GaugeFunc("artisan_store_jobs",
		"Logical jobs tracked by the persistent store.",
		func() float64 { return float64(store.Len()) })
}

// Registry exposes the server's metric registry — cmd/artisan-server
// mirrors it onto the pprof debug mux, and tests scrape it directly.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Tracer exposes the server's trace ring buffer.
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// handle registers h under the mux pattern wrapped in the telemetry
// middleware, with the pattern itself as the route label — the stable,
// low-cardinality name the per-route counters and latency histograms key
// on.
func (s *Server) handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, s.httpm.Middleware(pattern, s.accessLog, h))
}

// handleTraces serves the most recent design traces (newest first) as
// JSON span trees. ?n= bounds the count.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad n %q: want a positive integer", q))
			return
		}
		limit = v
	}
	roots := s.tracer.Traces()
	if limit > 0 && limit < len(roots) {
		roots = roots[:limit]
	}
	traces := make([]telemetry.SpanJSON, 0, len(roots))
	for _, root := range roots {
		traces = append(traces, root.JSON())
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":  s.tracer.Total(),
		"traces": traces,
	})
}
