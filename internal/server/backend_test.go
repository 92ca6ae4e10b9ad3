package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDesignBackendValidation rejects unknown backend names at parse
// time (request field) and at construction time (server default).
func TestDesignBackendValidation(t *testing.T) {
	rec, body := doJSON(t, newServer(t, Options{}), "POST", "/design",
		DesignRequest{Group: "G-1", Tune: true, Backend: "annealing"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown backend: code %d %s", rec.Code, body)
	}
	if _, err := NewServer(Options{SizingBackend: "annealing"}); err == nil {
		t.Error("NewServer accepted an unknown default sizing backend")
	}
	if _, err := NewServer(Options{SizingBackend: "hybrid"}); err != nil {
		t.Errorf("NewServer rejected a registered backend: %v", err)
	}
}

// TestDesignBackendRouting runs a tuned design through an explicit
// backend and checks the winning backend shows up in the metrics. The
// seed/temperature pair is chosen so the direct design just misses the
// phase-margin spec, forcing the last-resort tuner to fire.
func TestDesignBackendRouting(t *testing.T) {
	srv := newServer(t, Options{})
	rec, body := doJSON(t, srv, "POST", "/design",
		DesignRequest{Group: "G-1", Seed: 1, Temperature: 0.9, Tune: true, Backend: "hybrid", Transcript: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("design: %d %s", rec.Code, body)
	}
	var resp DesignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Success {
		t.Fatalf("tuned hybrid design failed: %+v", resp)
	}
	if !strings.Contains(resp.Transcript, "invoking hybrid sizing backend") {
		t.Error("transcript does not record the backend invocation")
	}
	mrec := httptest.NewRecorder()
	srv.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	metrics := mrec.Body.String()
	if !strings.Contains(metrics, `artisan_sizing_backend_total{backend="hybrid",outcome="success"} 1`) {
		t.Errorf("sizing backend counter missing:\n%s", grepLines(metrics, "artisan_sizing"))
	}
	if !strings.Contains(metrics, "artisan_sizing_evals_count 1") {
		t.Errorf("sizing evals histogram missing:\n%s", grepLines(metrics, "artisan_sizing"))
	}
}

// TestDesignBackendDefault: a tuned request without a backend field uses
// the server's configured default, and the cache key separates backends
// (same spec+seed under a different backend is a cache miss).
func TestDesignBackendDefault(t *testing.T) {
	srv := newServer(t, Options{SizingBackend: "whitebox"})
	req := DesignRequest{Group: "G-1", Seed: 1, Temperature: 0.9, Tune: true}
	rec, body := doJSON(t, srv, "POST", "/design", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("design: %d %s", rec.Code, body)
	}
	mrec := httptest.NewRecorder()
	srv.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), `artisan_sizing_backend_total{backend="whitebox"`) {
		t.Errorf("default backend not routed:\n%s", grepLines(mrec.Body.String(), "artisan_sizing"))
	}

	// Same request with an explicit different backend must not hit the
	// whitebox run's cache entry.
	req.Backend = "bo"
	rec, body = doJSON(t, srv, "POST", "/design", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("design: %d %s", rec.Code, body)
	}
	var resp DesignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("different backend served from cache: the design key misses the backend")
	}
}

// TestDesignBackendUntunedAndDefault: an untuned request's backend is
// validated but does not split the design cache, and a tuned request
// that names no backend, on a server without a configured default, runs
// backend.DefaultName (hybrid).
func TestDesignBackendUntunedAndDefault(t *testing.T) {
	srv := newServer(t, Options{})
	req := DesignRequest{Group: "G-1", Seed: 1}
	if rec, body := doJSON(t, srv, "POST", "/design", req); rec.Code != http.StatusOK {
		t.Fatalf("design: %d %s", rec.Code, body)
	}
	req.Backend = "ga"
	rec, body := doJSON(t, srv, "POST", "/design", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("design: %d %s", rec.Code, body)
	}
	var resp DesignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("untuned request with a backend missed the cache entry of the same request without one")
	}
	req.Backend = "nope"
	if rec, body := doJSON(t, srv, "POST", "/design", req); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown backend on an untuned request: code %d %s", rec.Code, body)
	}

	rec, body = doJSON(t, srv, "POST", "/design",
		DesignRequest{Group: "G-1", Seed: 1, Temperature: 0.9, Tune: true, Transcript: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("tuned design: %d %s", rec.Code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Transcript, "[tuner] invoking hybrid sizing backend") {
		t.Error("transcript does not name the default backend hybrid")
	}
	mrec := httptest.NewRecorder()
	srv.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), `artisan_sizing_backend_total{backend="hybrid"`) {
		t.Errorf("default backend not routed to hybrid:\n%s", grepLines(mrec.Body.String(), "artisan_sizing"))
	}
}

// grepLines filters a metrics dump to lines containing sub (test
// diagnostics only).
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
