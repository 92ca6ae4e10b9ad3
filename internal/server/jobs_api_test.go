package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"artisan/internal/jobs"
)

// postJSON sends a request with an explicit Content-Type.
func postJSON(t *testing.T, srv http.Handler, path, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestContentTypeRejected(t *testing.T) {
	body, _ := json.Marshal(DesignRequest{Group: "G-1"})
	for _, path := range []string{"/design", "/jobs", "/simulate"} {
		rec := postJSON(t, New(), path, "text/plain", body)
		if rec.Code != http.StatusUnsupportedMediaType {
			t.Errorf("%s with text/plain: %d, want 415", path, rec.Code)
		}
	}
	// application/json (with charset) is accepted.
	rec := postJSON(t, New(), "/design", "application/json; charset=utf-8", body)
	if rec.Code != http.StatusOK {
		t.Errorf("application/json: %d %s", rec.Code, rec.Body.String())
	}
}

func TestOversizedBody(t *testing.T) {
	huge := []byte(`{"group":"` + strings.Repeat("x", 1<<20) + `"}`)
	for _, path := range []string{"/design", "/jobs", "/simulate"} {
		rec := postJSON(t, New(), path, "application/json", huge)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized: %d, want 413", path, rec.Code)
		}
	}
}

func TestBadJSONOnJobs(t *testing.T) {
	rec := postJSON(t, New(), "/jobs", "application/json", []byte("{nope"))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON: %d", rec.Code)
	}
	rec = postJSON(t, New(), "/jobs", "application/json", []byte(`{"group":"G-9"}`))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad group: %d", rec.Code)
	}
}

func pollJob(t *testing.T, srv http.Handler, id string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rec, body := doJSON(t, srv, "GET", "/jobs/"+id, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d %s", id, rec.Code, body)
		}
		var j jobJSON
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		switch j.Status {
		case "done", "failed", "cancelled":
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobJSON{}
}

func TestJobEnqueuePollDone(t *testing.T) {
	srv := New()
	defer srv.Shutdown(context.Background())

	rec, body := doJSON(t, srv, "POST", "/jobs", DesignRequest{Group: "G-1", Seed: 3})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", rec.Code, body)
	}
	var accepted jobJSON
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.ID == "" || (accepted.Status != "queued" && accepted.Status != "running" && accepted.Status != "done") {
		t.Fatalf("accepted = %+v", accepted)
	}

	fin := pollJob(t, srv, accepted.ID)
	if fin.Status != "done" || fin.Started == "" || fin.Finished == "" {
		t.Fatalf("finished job = %+v", fin)
	}
	res, err := json.Marshal(fin.Result)
	if err != nil {
		t.Fatal(err)
	}
	var resp DesignResponse
	if err := json.Unmarshal(res, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Success || resp.Arch != "NMC" {
		t.Errorf("job result = %+v", resp)
	}

	// The listing counts it as done.
	rec, body = doJSON(t, srv, "GET", "/jobs", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /jobs: %d", rec.Code)
	}
	var list struct {
		Jobs   []jobJSON      `json:"jobs"`
		Counts map[string]int `json:"counts"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) == 0 || list.Counts["done"] == 0 {
		t.Errorf("list = %+v", list)
	}
	// Listings never embed full results (poll the job id for those).
	if list.Jobs[0].Result != nil {
		t.Error("list leaked job results")
	}
}

func TestJobGetUnknown(t *testing.T) {
	rec, _ := doJSON(t, New(), "GET", "/jobs/j-999", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown job: %d", rec.Code)
	}
	rec, _ = doJSON(t, New(), "DELETE", "/jobs/j-999", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("cancel unknown job: %d", rec.Code)
	}
}

// TestJobCancelQueued pins one worker with an internal blocker job so
// the design job submitted over the API is deterministically queued,
// then cancels it mid-flight via DELETE.
func TestJobCancelQueued(t *testing.T) {
	srv := NewWithOptions(Options{Workers: 1, Queue: 8})
	defer srv.Shutdown(context.Background())

	release := make(chan struct{})
	defer close(release)
	blocker, _, err := srv.jobs.Submit(func(ctx context.Context) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}, jobs.SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for blocker.Status() != jobs.StatusRunning {
		time.Sleep(time.Millisecond)
	}

	rec, body := doJSON(t, srv, "POST", "/jobs", DesignRequest{Group: "G-2", Seed: 9})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", rec.Code, body)
	}
	var accepted jobJSON
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Status != "queued" {
		t.Fatalf("status = %s, want queued behind blocker", accepted.Status)
	}

	rec, _ = doJSON(t, srv, "DELETE", "/jobs/"+accepted.ID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE: %d", rec.Code)
	}
	fin := pollJob(t, srv, accepted.ID)
	if fin.Status != "cancelled" {
		t.Errorf("status = %s, want cancelled", fin.Status)
	}
	// Cancelling a finished job conflicts.
	rec, _ = doJSON(t, srv, "DELETE", "/jobs/"+accepted.ID, nil)
	if rec.Code != http.StatusConflict {
		t.Errorf("double cancel: %d", rec.Code)
	}
}

// TestQueueFullBackpressure fills the single-slot queue behind a pinned
// worker: the next enqueue must be rejected with 503, not block.
func TestQueueFullBackpressureHTTP(t *testing.T) {
	srv := NewWithOptions(Options{Workers: 1, Queue: 1})
	defer srv.Shutdown(context.Background())

	release := make(chan struct{})
	defer close(release)
	blocker, _, err := srv.jobs.Submit(func(ctx context.Context) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}, jobs.SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for blocker.Status() != jobs.StatusRunning {
		time.Sleep(time.Millisecond)
	}

	rec, body := doJSON(t, srv, "POST", "/jobs", DesignRequest{Group: "G-1"})
	if rec.Code != http.StatusAccepted { // fills the one queue slot
		t.Fatalf("first enqueue: %d %s", rec.Code, body)
	}
	rec, _ = doJSON(t, srv, "POST", "/jobs", DesignRequest{Group: "G-2"})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("second enqueue: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	// The synchronous endpoint sheds load the same way.
	rec, _ = doJSON(t, srv, "POST", "/design", DesignRequest{Group: "G-3"})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("sync design under backpressure: %d, want 503", rec.Code)
	}
}

// TestDesignCacheHit sends the identical request twice: the second reply
// must be served from the LRU cache without a fresh agent session.
func TestDesignCacheHit(t *testing.T) {
	srv := New()
	defer srv.Shutdown(context.Background())
	req := DesignRequest{Group: "G-1", Seed: 11}

	var first, second DesignResponse
	rec, body := doJSON(t, srv, "POST", "/design", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("first: %d %s", rec.Code, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request marked cached")
	}

	rec, body = doJSON(t, srv, "POST", "/design", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("second: %d %s", rec.Code, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second request not served from cache")
	}
	if second.Netlist != first.Netlist || second.FoM != first.FoM ||
		second.Session["simulations"] != first.Session["simulations"] {
		t.Error("cached result differs from original")
	}
	if st := srv.jobs.CacheStats(); st.Hits != 1 {
		t.Errorf("cache stats = %+v, want exactly 1 hit", st)
	}

	// A different seed is a different key: no spurious hit.
	rec, body = doJSON(t, srv, "POST", "/design", DesignRequest{Group: "G-1", Seed: 12})
	if rec.Code != http.StatusOK {
		t.Fatalf("third: %d %s", rec.Code, body)
	}
	var third DesignResponse
	if err := json.Unmarshal(body, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Error("different seed hit the cache")
	}

	// An async job for the same (spec, options, seed) completes
	// instantly from the cache too.
	rec, body = doJSON(t, srv, "POST", "/jobs", req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("cached job: %d %s", rec.Code, body)
	}
	var j jobJSON
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if j.Status != "done" || !j.Cached {
		t.Errorf("cached job = %+v, want instant done", j)
	}
}

func TestHealthzReportsPool(t *testing.T) {
	rec, body := doJSON(t, New(), "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var h struct {
		Status string         `json:"status"`
		Jobs   map[string]int `json:"jobs"`
		Cache  map[string]any `json:"cache"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Cache == nil {
		t.Errorf("healthz = %s", body)
	}
}

// Empty listings must encode as [] / {} — never JSON null.
func TestEmptyListingsNotNull(t *testing.T) {
	rec, body := doJSON(t, New(), "GET", "/jobs", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /jobs: %d", rec.Code)
	}
	s := string(body)
	if !strings.Contains(s, `"jobs":[]`) {
		t.Errorf("empty jobs list not []: %s", s)
	}
	if strings.Contains(s, "null") {
		t.Errorf("null leaked into empty listing: %s", s)
	}
	for _, path := range []string{"/groups", "/architectures"} {
		rec, body := doJSON(t, New(), "GET", path, nil)
		if rec.Code != http.StatusOK || strings.HasPrefix(strings.TrimSpace(string(body)), "null") {
			t.Errorf("%s: %d %s", path, rec.Code, body)
		}
	}
}

// TestServerShutdownDrains: jobs accepted before shutdown complete; new
// submissions are refused afterwards.
func TestServerShutdownDrains(t *testing.T) {
	srv := New()
	rec, body := doJSON(t, srv, "POST", "/jobs", DesignRequest{Group: "G-4", Seed: 5})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("enqueue: %d %s", rec.Code, body)
	}
	var accepted jobJSON
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec, _ = doJSON(t, srv, "GET", "/jobs/"+accepted.ID, nil)
	var fin jobJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &fin); err != nil {
		t.Fatal(err)
	}
	if fin.Status != "done" {
		t.Errorf("job after drain = %s, want done", fin.Status)
	}
	rec, _ = doJSON(t, srv, "POST", "/jobs", DesignRequest{Group: "G-1"})
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: %d, want 503", rec.Code)
	}
}

// Sanity: the wire form of a snapshot round-trips the essentials.
func TestJobJSONShape(t *testing.T) {
	j := toJobJSON(jobs.Snapshot{
		ID: "j-7", Status: jobs.StatusDone, Cached: true,
		Created: time.Unix(0, 0), Started: time.Unix(1, 0), Finished: time.Unix(2, 0),
		Result: &DesignResponse{Success: true},
	}, true)
	if j.ID != "j-7" || j.Status != "done" || !j.Cached || j.Result == nil {
		t.Errorf("jobJSON = %+v", j)
	}
	if j.Created == "" || j.Started == "" || j.Finished == "" {
		t.Errorf("timestamps missing: %+v", j)
	}
	if _, err := json.Marshal(j); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionLeaseSpansJob: with admission on, a design job holds its
// lease while it is queued and gives it back once terminal, and a cache
// hit, whose job is terminal at submission, gives its lease back before
// the handler returns.
func TestAdmissionLeaseSpansJob(t *testing.T) {
	srv := NewWithOptions(Options{Workers: 1, Queue: 8, TenantRate: 1000})
	defer srv.Shutdown(context.Background())
	leasesDrain := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); srv.pqueue.InUse() != 0; {
			if time.Now().After(deadline) {
				t.Fatalf("%d leases still held after the jobs ended", srv.pqueue.InUse())
			}
			time.Sleep(time.Millisecond)
		}
	}

	release := make(chan struct{})
	blocker, _, err := srv.jobs.Submit(func(ctx context.Context) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}, jobs.SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for blocker.Status() != jobs.StatusRunning {
		time.Sleep(time.Millisecond)
	}
	rec, body := doJSON(t, srv, "POST", "/jobs", DesignRequest{Group: "G-2", Seed: 9})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", rec.Code, body)
	}
	var accepted jobJSON
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if got := srv.pqueue.InUse(); got != 1 {
		t.Fatalf("queued job holds %d leases, want 1", got)
	}
	close(release)
	if fin := pollJob(t, srv, accepted.ID); fin.Status != "done" {
		t.Fatalf("job status %s, want done", fin.Status)
	}
	leasesDrain()

	req := DesignRequest{Group: "G-1", Seed: 1}
	if rec, body := doJSON(t, srv, "POST", "/design", req); rec.Code != http.StatusOK {
		t.Fatalf("POST /design: %d %s", rec.Code, body)
	}
	leasesDrain()
	rec, body = doJSON(t, srv, "POST", "/design", req)
	if rec.Code != http.StatusOK || !strings.Contains(string(body), `"cached":true`) {
		t.Fatalf("repeat POST /design: %d %s, want a cache hit", rec.Code, body)
	}
	if got := srv.pqueue.InUse(); got != 0 {
		t.Errorf("cache hit still holds %d leases after the handler returned", got)
	}
}
