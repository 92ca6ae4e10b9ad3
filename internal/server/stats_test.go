package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"artisan/internal/cluster"
)

func TestStatsEndpoint(t *testing.T) {
	srv := newServer(t, Options{})
	rec, body := doJSON(t, srv, "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, body)
	}
	var got struct {
		Resilience map[string]int64 `json:"resilience"`
		Breaker    string           `json:"breaker"`
		Config     struct {
			RetryMax         int     `json:"retryMax"`
			BreakerThreshold int     `json:"breakerThreshold"`
			FaultRate        float64 `json:"faultRate"`
		} `json:"config"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Breaker != "closed" {
		t.Errorf("breaker = %q, want closed on a fresh server", got.Breaker)
	}
	if got.Config.RetryMax != 3 || got.Config.BreakerThreshold != 5 {
		t.Errorf("defaults = %+v", got.Config)
	}
}

func TestHealthzCarriesResilience(t *testing.T) {
	rec, body := doJSON(t, newServer(t, Options{}), "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"breaker", "resilience"} {
		if _, ok := got[key]; !ok {
			t.Errorf("healthz missing %q: %s", key, body)
		}
	}
}

// A chaos-mode server still designs successfully: retries and the
// fallback ladder absorb the injected faults, the response reports any
// degradation, and the service-wide counters accumulate across requests.
func TestChaosModeServerDesigns(t *testing.T) {
	srv := newServer(t, Options{FaultRate: 0.3, RetryMax: 5, Workers: 2})
	var body []byte
	for seed := int64(1); seed <= 5; seed++ {
		var rec *httptest.ResponseRecorder
		rec, body = doJSON(t, srv, "POST", "/design",
			DesignRequest{Group: "G-1", Seed: seed})
		if rec.Code != http.StatusOK {
			t.Fatalf("design under chaos (seed %d): %d %s", seed, rec.Code, body)
		}
		var resp DesignResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Success {
			t.Errorf("chaos-mode design failed (seed %d): %s", seed, resp.FailReason)
		}
	}

	_, body = doJSON(t, srv, "GET", "/stats", nil)
	var stats struct {
		Resilience struct {
			Injected int64 `json:"injected"`
			Attempts int64 `json:"attempts"`
		} `json:"resilience"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Resilience.Injected == 0 || stats.Resilience.Attempts == 0 {
		t.Errorf("service-wide counters not rolled up: %s", body)
	}
}

// A session that runs out of time still spent resilience events, and
// they reach the service-wide counters: /stats and /metrics count the
// attempts and injected faults of a design that answered 503.
func TestFailedSessionCountsResilience(t *testing.T) {
	srv := newServer(t, Options{Workers: 1, FaultRate: 1, RetryMax: 10, JobTimeout: 50 * time.Millisecond})
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	rec, body := doJSON(t, srv, "POST", "/design", DesignRequest{Group: "G-1", Seed: 3})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("design with every call failing: %d %s, want 503", rec.Code, body)
	}

	_, body = doJSON(t, srv, "GET", "/stats", nil)
	var stats struct {
		Resilience struct {
			Injected int64 `json:"injected"`
			Attempts int64 `json:"attempts"`
		} `json:"resilience"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Resilience.Attempts < 1 || stats.Resilience.Injected < 1 {
		t.Errorf("failed session's events not rolled up: %s", body)
	}

	_, body = doJSON(t, srv, "GET", "/metrics", nil)
	const series = `artisan_resilience_events_total{event="attempts"} `
	attempts := 0.0
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			attempts, _ = strconv.ParseFloat(v, 64)
		}
	}
	if attempts == 0 {
		t.Errorf("metrics: no attempts counted in %q", series)
	}
}

// The journal record count that /stats reports follows the journal file:
// a fresh node that served 13 designs (a submit, start and done record
// each) reads 39, the node reopened on that directory reads what the file
// holds, and Compact, which truncates the journal, brings it to 0.
func TestStatsJournalRecordCount(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	records := func(srv *Server) int {
		t.Helper()
		rec, body := doJSON(t, srv, "GET", "/stats", nil)
		var got struct {
			Store cluster.StoreStats `json:"store"`
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("stats: %d %s", rec.Code, body)
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		return got.Store.Journal.Records
	}
	fileRecords := func() int {
		t.Helper()
		blob, err := os.ReadFile(cluster.JournalPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(blob, []byte("\n"))
	}

	srv := newServer(t, Options{Workers: 1, DataDir: dir})
	for i := 0; i < 13; i++ {
		rec, body := doJSONHdr(t, srv, "POST", "/design", map[string]any{"group": "G-1", "seed": i}, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("design %d: %d %s", i, rec.Code, body)
		}
	}
	// Each done record is journaled once its job has finished, after the
	// reply: wait for the last of them.
	deadline := time.Now().Add(5 * time.Second)
	got := records(srv)
	for got < 39 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		got = records(srv)
	}
	if got != 39 {
		t.Errorf("fresh node: journal records %d, want 39", got)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srv = newServer(t, Options{Workers: 1, DataDir: dir})
	if got, want := records(srv), fileRecords(); got != want || want < 39 {
		t.Errorf("reopened node: journal records %d, the file holds %d", got, want)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	store, _, err := cluster.OpenStore(dir, cluster.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got, want := store.Stats().Journal.Records, fileRecords(); got != want {
		t.Errorf("opened store: journal records %d, the file holds %d", got, want)
	}
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := store.Stats().Journal.Records; got != 0 {
		t.Errorf("after Compact: journal records %d, want 0", got)
	}
}
