package server

// Tests for the distributed serving tier's per-node surface: draining
// readiness, per-tenant admission with Retry-After, queue saturation on
// /stats, and journal replay through the public HTTP API.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// doJSONHdr is doJSON plus request headers.
func doJSONHdr(t *testing.T, srv http.Handler, method, path string, body any, hdr map[string]string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	var buf strings.Builder
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, strings.NewReader(buf.String()))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

// TestHealthzDraining: after StartDraining the readiness probe answers
// 503 so the router pulls the node, while the API keeps serving until
// the drain completes.
func TestHealthzDraining(t *testing.T) {
	s := newServer(t, Options{})
	rec, _ := doJSON(t, s, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz before drain = %d", rec.Code)
	}
	s.StartDraining()
	if !s.Draining() {
		t.Fatal("Draining() false after StartDraining")
	}
	rec, body := doJSON(t, s, "GET", "/healthz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", rec.Code)
	}
	var health struct {
		Status string `json:"status"`
		Node   string `json:"node"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "draining" {
		t.Fatalf("status = %q, want draining", health.Status)
	}
	// In-flight work still completes: the design endpoint stays up.
	rec, _ = doJSON(t, s, "POST", "/design", map[string]string{"group": "G-1"})
	if rec.Code != http.StatusOK {
		t.Fatalf("design during drain = %d, want 200 (drain only flips readiness)", rec.Code)
	}
}

// TestTenantRateLimit: a tenant over its token bucket gets 429 with a
// Retry-After derived from the bucket wait; other tenants are isolated.
func TestTenantRateLimit(t *testing.T) {
	s := newServer(t, Options{Workers: 2, TenantRate: 0.5, TenantBurst: 2})
	req := map[string]string{"group": "G-1"}

	for i := 0; i < 2; i++ {
		rec, body := doJSONHdr(t, s, "POST", "/design", req, map[string]string{"X-Tenant": "alice"})
		if rec.Code != http.StatusOK {
			t.Fatalf("alice burst request %d = %d: %s", i, rec.Code, body)
		}
	}
	rec, _ := doJSONHdr(t, s, "POST", "/design", req, map[string]string{"X-Tenant": "alice"})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("alice over-rate = %d, want 429", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", rec.Header().Get("Retry-After"))
	}
	// Bob's bucket is untouched by alice's shed.
	rec, body := doJSONHdr(t, s, "POST", "/design", req, map[string]string{"X-Tenant": "bob"})
	if rec.Code != http.StatusOK {
		t.Fatalf("bob after alice's shed = %d: %s", rec.Code, body)
	}

	// The shed shows up in admission accounting and metrics.
	_, statsBody := doJSON(t, s, "GET", "/stats", nil)
	var stats struct {
		Admission struct {
			Admitted int64 `json:"admitted"`
			Shed     int64 `json:"shed"`
			Tenants  []struct {
				Tenant string `json:"tenant"`
			} `json:"tenants"`
		} `json:"admission"`
	}
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admission.Admitted != 3 || stats.Admission.Shed != 1 {
		t.Fatalf("admission totals = %+v, want 3 admitted / 1 shed", stats.Admission)
	}
	rec, metricsBody := doJSON(t, s, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	for _, want := range []string{
		`artisan_admit_total{tenant="alice"} 2`,
		`artisan_shed_total{tenant="alice",reason="rate"} 1`,
		`artisan_admit_total{tenant="bob"} 1`,
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestQueueShedNotAdmitted: an item counts as admitted only once it holds
// a lease. With every lease held, one request waits in the single-slot
// wait queue and the next is shed with 429: the shed must read as shed,
// not admitted, and the waiter whose client gives up as neither. Once
// the leases free up, a request is admitted.
func TestQueueShedNotAdmitted(t *testing.T) {
	s := newServer(t, Options{Workers: 1, Queue: 1, TenantRate: 1000})
	// Workers 1 + Queue 1 = two leases; hold both so requests must wait.
	var held []func()
	for i := 0; i < 2; i++ {
		release, err := s.pqueue.Acquire(context.Background(), "holder", 0)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, release)
	}
	req := map[string]string{"group": "G-1"}
	alice := map[string]string{"X-Tenant": "alice"}

	ctx, giveUp := context.WithCancel(context.Background())
	waited := make(chan int)
	go func() {
		hr := httptest.NewRequest("POST", "/design", strings.NewReader(`{"group":"G-1"}`)).WithContext(ctx)
		hr.Header.Set("Content-Type", "application/json")
		hr.Header.Set("X-Tenant", "alice")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, hr)
		waited <- rec.Code
	}()
	for s.pqueue.Waiting() != 1 {
		time.Sleep(time.Millisecond)
	}
	rec, _ := doJSONHdr(t, s, "POST", "/design", req, alice)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("request past a full wait queue = %d, want 429", rec.Code)
	}
	giveUp()
	if code := <-waited; code != http.StatusServiceUnavailable {
		t.Fatalf("waiter that gave up = %d, want 503", code)
	}
	for _, release := range held {
		release()
	}
	if rec, body := doJSONHdr(t, s, "POST", "/design", req, alice); rec.Code != http.StatusOK {
		t.Fatalf("request with free leases = %d: %s", rec.Code, body)
	}

	_, statsBody := doJSON(t, s, "GET", "/stats", nil)
	var stats struct {
		Admission struct {
			Admitted int64 `json:"admitted"`
			Shed     int64 `json:"shed"`
			Tenants  []struct {
				Tenant   string `json:"tenant"`
				Admitted int64  `json:"admitted"`
				Shed     int64  `json:"shed"`
			} `json:"tenants"`
		} `json:"admission"`
	}
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	adm := stats.Admission
	if adm.Admitted != 1 || adm.Shed != 1 {
		t.Errorf("/stats admission totals = %d admitted / %d shed, want 1/1", adm.Admitted, adm.Shed)
	}
	if len(adm.Tenants) != 1 || adm.Tenants[0].Admitted != 1 || adm.Tenants[0].Shed != 1 {
		t.Errorf("/stats tenants = %+v, want alice with 1 admitted / 1 shed", adm.Tenants)
	}
	_, metricsBody := doJSON(t, s, "GET", "/metrics", nil)
	for _, want := range []string{
		"artisan_admission_admitted_total 1\n",
		"artisan_admission_shed_total 1\n",
		`artisan_admit_total{tenant="alice"} 1` + "\n",
		`artisan_shed_total{tenant="alice",reason="queue"} 1` + "\n",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", strings.TrimSpace(want))
		}
	}
}

// TestBatchAdmissionChargesItems: a batch is charged as its item count,
// so a burst-2 tenant cannot sneak 5 items through one request.
func TestBatchAdmissionChargesItems(t *testing.T) {
	s := newServer(t, Options{Workers: 2, TenantRate: 0.5, TenantBurst: 2})
	items := make([]map[string]string, 5)
	for i := range items {
		items[i] = map[string]string{"group": "G-1"}
	}
	rec, _ := doJSONHdr(t, s, "POST", "/design/batch", map[string]any{"items": items},
		map[string]string{"X-Tenant": "carol"})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("5-item batch against burst 2 = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed batch missing Retry-After")
	}
	// A batch within the burst is fine.
	rec, _ = doJSONHdr(t, s, "POST", "/design/batch", map[string]any{"items": items[:2]},
		map[string]string{"X-Tenant": "carol"})
	if rec.Code != http.StatusOK {
		t.Fatalf("2-item batch = %d, want 200", rec.Code)
	}
}

// TestStatsQueueFields: /stats reports queue saturation under the
// documented keys (satellite: Retry-After and queue_depth/queue_capacity
// observability).
func TestStatsQueueFields(t *testing.T) {
	s := newServer(t, Options{Workers: 1, Queue: 7})
	_, body := doJSON(t, s, "GET", "/stats", nil)
	var stats struct {
		QueueDepth    *int   `json:"queue_depth"`
		QueueCapacity *int   `json:"queue_capacity"`
		Node          string `json:"node"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.QueueDepth == nil || stats.QueueCapacity == nil {
		t.Fatalf("stats missing queue_depth/queue_capacity: %s", body)
	}
	if *stats.QueueCapacity != 7 {
		t.Fatalf("queue_capacity = %d, want 7", *stats.QueueCapacity)
	}
}

// TestPersistReplayHTTP: a design served before a restart is visible
// after it — the journal replays the result into the cache, so the same
// request over the public API is a cache hit, not a re-run.
func TestPersistReplayHTTP(t *testing.T) {
	dir := t.TempDir()
	req := map[string]string{"group": "G-2"}

	s1, err := NewServer(Options{Workers: 2, DataDir: dir, NodeID: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	rec, body1 := doJSON(t, s1, "POST", "/design", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("design = %d: %s", rec.Code, body1)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(Options{Workers: 2, DataDir: dir, NodeID: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Shutdown(context.Background()) }()

	_, statsBody := doJSON(t, s2, "GET", "/stats", nil)
	var stats struct {
		Replay struct {
			ResultsWarmed int64 `json:"resultsWarmed"`
			JournalJobs   int   `json:"journalJobs"`
		} `json:"replay"`
	}
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Replay.ResultsWarmed != 1 || stats.Replay.JournalJobs != 1 {
		t.Fatalf("replay stats = %+v, want 1 warmed / 1 journaled", stats.Replay)
	}

	rec, body2 := doJSON(t, s2, "POST", "/design", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("design after restart = %d: %s", rec.Code, body2)
	}
	var resp struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(body2, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatalf("design after restart not served from the replayed cache: %s", body2)
	}
}

// TestPersistQueuedJobSurvivesRestart: a job journaled but never run
// (accepted into the queue, process dies) is re-executed by the next
// process's replay and reaches done.
func TestPersistQueuedJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewServer(Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Async submit: the job is journaled and queued; kill the store
	// before waiting so the terminal record never lands — the crash.
	rec, body := doJSON(t, s1, "POST", "/jobs", map[string]string{"group": "G-3"})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("jobs submit = %d: %s", rec.Code, body)
	}
	if err := s1.persist.Store().Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Shutdown(context.Background()) }()
	// Replay resubmitted it; the same request must complete (either from
	// the replayed run's cache entry or by coalescing onto it).
	rec, body = doJSON(t, s2, "POST", "/design", map[string]string{"group": "G-3"})
	if rec.Code != http.StatusOK {
		t.Fatalf("design after crash recovery = %d: %s", rec.Code, body)
	}
}
