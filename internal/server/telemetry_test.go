package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"artisan/internal/telemetry"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, srv http.Handler) string {
	t.Helper()
	rec, body := doJSON(t, srv, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	return string(body)
}

// TestMetricsEndToEnd is the acceptance check for the observability
// subsystem: after one design round-trip, /metrics must carry the
// per-route HTTP instruments, the design outcome counters, and the
// jobs/resilience state folded in from their own packages.
func TestMetricsEndToEnd(t *testing.T) {
	srv := newServer(t, Options{})
	rec, body := doJSON(t, srv, "POST", "/design",
		DesignRequest{Group: "G-1", Seed: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("design: %d %s", rec.Code, body)
	}
	// Same key again: exercises the cache-hit counter.
	rec, _ = doJSON(t, srv, "POST", "/design", DesignRequest{Group: "G-1", Seed: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("design (cached): %d", rec.Code)
	}

	text := scrape(t, srv)
	for _, want := range []string{
		// Per-route request counters and latency histograms.
		`artisan_http_requests_total{route="POST /design",code="200"} 2`,
		`artisan_http_request_duration_seconds_bucket{route="POST /design",le="+Inf"} 2`,
		`artisan_http_request_duration_seconds_count{route="POST /design"} 2`,
		// Design outcomes by method/group/outcome; one fresh run, one
		// cache hit (cache hits never reach designFunc).
		`artisan_designs_total{method="artisan",group="G-1",outcome="success"} 1`,
		`artisan_design_duration_seconds_count 1`,
		// Jobs state folded in from jobs.Manager.
		`artisan_jobs_queue_depth 0`,
		`artisan_jobs_cache_hits_total 1`,
		`artisan_jobs_cache_misses_total 1`,
		`artisan_jobs_cache_size 1`,
		// Resilience counters and breaker state folded in.
		`artisan_resilience_events_total{event="retries"}`,
		`artisan_resilience_events_total{event="breaker_opens"} 0`,
		`artisan_breaker_state 0`,
		// Process self-observation.
		`artisan_process_goroutines`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The /metrics scrape itself is counted on the next scrape.
	text = scrape(t, srv)
	if !strings.Contains(text, `artisan_http_requests_total{route="GET /metrics",code="200"} 1`) {
		t.Error("/metrics route not self-counted")
	}
}

// TestStatsAndMetricsAgree pins the single-source-of-truth property:
// the JSON /stats payload and the Prometheus /metrics payload must
// report identical cache and queue numbers because both read the same
// jobs.Manager.
func TestStatsAndMetricsAgree(t *testing.T) {
	srv := newServer(t, Options{})
	rec, body := doJSON(t, srv, "POST", "/design", DesignRequest{Group: "G-2", Seed: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("design: %d %s", rec.Code, body)
	}
	var stats struct {
		QueueDepth int `json:"queueDepth"`
		Cache      struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	rec, body = doJSON(t, srv, "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	text := scrape(t, srv)
	for metric, val := range map[string]int64{
		"artisan_jobs_queue_depth":        int64(stats.QueueDepth),
		"artisan_jobs_cache_hits_total":   stats.Cache.Hits,
		"artisan_jobs_cache_misses_total": stats.Cache.Misses,
	} {
		line := metric + " " + jsonNumber(val)
		if !strings.Contains(text, line+"\n") {
			t.Errorf("/metrics disagrees with /stats: want line %q", line)
		}
	}
}

func jsonNumber(v int64) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestTracesEndpoint runs one design and expects /traces to return its
// span tree: a server.design root covering the whole core.Design call
// with the session and tool children under it.
func TestTracesEndpoint(t *testing.T) {
	srv := newServer(t, Options{})
	rec, body := doJSON(t, srv, "POST", "/design", DesignRequest{Group: "G-1", Seed: 2})
	if rec.Code != http.StatusOK {
		t.Fatalf("design: %d %s", rec.Code, body)
	}
	rec, body = doJSON(t, srv, "GET", "/traces", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("traces: %d %s", rec.Code, body)
	}
	var out struct {
		Total  uint64               `json:"total"`
		Traces []telemetry.SpanJSON `json:"traces"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 1 || len(out.Traces) != 1 {
		t.Fatalf("total=%d traces=%d, want 1/1", out.Total, len(out.Traces))
	}
	root := out.Traces[0]
	if root.Name != "server.design" {
		t.Fatalf("root span = %q, want server.design", root.Name)
	}
	names := map[string]int{}
	var walk func(telemetry.SpanJSON)
	walk = func(s telemetry.SpanJSON) {
		names[s.Name]++
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	for _, want := range []string{"core.design", "agents.session", "tool.simulator", "mna.sweep"} {
		if names[want] == 0 {
			t.Errorf("trace missing span %q (got %v)", want, names)
		}
	}

	// ?n= bounds the reply; a bad n is a 400.
	rec, _ = doJSON(t, srv, "GET", "/traces?n=1", nil)
	if rec.Code != http.StatusOK {
		t.Errorf("traces?n=1: %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, "GET", "/traces?n=zero", nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("traces?n=zero: %d, want 400", rec.Code)
	}
}

// TestRequestIDCorrelation checks the correlation chain: a client
// X-Request-ID is echoed on the response, stored on the job snapshot,
// and visible in the job listing.
func TestRequestIDCorrelation(t *testing.T) {
	srv := newServer(t, Options{})
	body := strings.NewReader(`{"group":"G-1","seed":9}`)
	req := httptest.NewRequest("POST", "/jobs", body)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(telemetry.RequestIDHeader, "corr-42")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("jobs submit: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(telemetry.RequestIDHeader); got != "corr-42" {
		t.Errorf("response id = %q, want corr-42", got)
	}
	var j jobJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
		t.Fatal(err)
	}
	if j.RequestID != "corr-42" {
		t.Errorf("job requestID = %q, want corr-42", j.RequestID)
	}

	// Without a client header the server generates one.
	rec2, _ := doJSON(t, srv, "GET", "/healthz", nil)
	if rec2.Header().Get(telemetry.RequestIDHeader) == "" {
		t.Error("no generated X-Request-ID on response")
	}
}
