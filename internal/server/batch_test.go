package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"artisan/internal/jobs"
)

// postBatch posts a batch body and decodes the NDJSON reply into
// per-item lines and the trailing summary.
func postBatch(t *testing.T, srv http.Handler, path string, body any) (int, []BatchItemResult, *BatchSummary) {
	t.Helper()
	rec, raw := doJSON(t, srv, "POST", path, body)
	if rec.Code != http.StatusOK {
		return rec.Code, nil, nil
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var (
		lines   []BatchItemResult
		summary *BatchSummary
	)
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		var probe map[string]json.RawMessage
		if err := dec.Decode(&probe); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, raw)
		}
		if _, ok := probe["summary"]; ok {
			summary = &BatchSummary{}
			blob, _ := json.Marshal(probe)
			if err := json.Unmarshal(blob, summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var line BatchItemResult
		blob, _ := json.Marshal(probe)
		if err := json.Unmarshal(blob, &line); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	return rec.Code, lines, summary
}

func byIndex(lines []BatchItemResult) map[int]BatchItemResult {
	m := make(map[int]BatchItemResult, len(lines))
	for _, l := range lines {
		m[l.Index] = l
	}
	return m
}

func TestDesignBatchHappyPath(t *testing.T) {
	srv := New()
	items := []DesignRequest{
		{Group: "G-1", Seed: 1},
		{Group: "G-1", Seed: 2},
		{Prompt: "gain >85dB, PM >55°, GBW >0.7MHz, Power <250uW, CL = 10pF"},
	}
	code, lines, sum := postBatch(t, srv, "/design/batch", map[string]any{"items": items})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(lines) != 3 || sum == nil {
		t.Fatalf("got %d lines, summary %v", len(lines), sum)
	}
	if sum.Items != 3 || sum.OK != 3 || sum.Failed != 0 {
		t.Errorf("summary %+v", sum)
	}
	got := byIndex(lines)
	for i := 0; i < 3; i++ {
		line, ok := got[i]
		if !ok {
			t.Fatalf("missing line for index %d", i)
		}
		if !line.OK || line.Design == nil {
			t.Errorf("item %d: %+v", i, line)
		} else if !line.Design.Success {
			t.Errorf("item %d design failed: %s", i, line.Design.FailReason)
		}
	}
}

// A duplicate-heavy batch coalesces: the identical items share one run
// and the coalesce-hit counter shows up on /metrics.
func TestDesignBatchCoalescesDuplicates(t *testing.T) {
	// A blocker pins the only worker, so the first item stays queued, and
	// so in flight, until every duplicate has attached to it; a design
	// run fast enough to finish first would turn them into cache hits.
	srv := NewWithOptions(Options{Workers: 1})
	defer srv.Shutdown(context.Background())
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
	go func() {
		defer close(release)
		for deadline := time.Now().Add(10 * time.Second); srv.jobs.CoalesceHits() < 7 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}()
	items := make([]DesignRequest, 8)
	for i := range items {
		items[i] = DesignRequest{Group: "G-1", Seed: 99}
	}
	code, lines, sum := postBatch(t, srv, "/design/batch", map[string]any{"items": items})
	if code != http.StatusOK || len(lines) != 8 || sum == nil {
		t.Fatalf("status %d, %d lines", code, len(lines))
	}
	if sum.OK != 8 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.Coalesced+sum.Cached != 7 {
		t.Errorf("coalesced %d + cached %d, want 7 duplicates deduped", sum.Coalesced, sum.Cached)
	}
	if hits := srv.jobs.CoalesceHits(); hits < 1 {
		t.Errorf("manager coalesce hits = %d, want > 0", hits)
	}
	rec, body := doJSON(t, srv, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	var metricsHits float64
	for _, ln := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(ln, "artisan_jobs_coalesce_hits_total ") {
			fmt.Sscanf(ln, "artisan_jobs_coalesce_hits_total %g", &metricsHits)
		}
	}
	if metricsHits < 1 {
		t.Errorf("/metrics coalesce hits = %g, want > 0\n", metricsHits)
	}
	if !strings.Contains(string(body), "artisan_batch_size") {
		t.Error("/metrics missing artisan_batch_size histogram")
	}
}

func TestDesignBatchOversized(t *testing.T) {
	srv := NewWithOptions(Options{MaxBatch: 2})
	items := []DesignRequest{{Group: "G-1"}, {Group: "G-1"}, {Group: "G-1"}}
	rec, body := doJSON(t, srv, "POST", "/design/batch", map[string]any{"items": items})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, body)
	}
}

func TestDesignBatchEmpty(t *testing.T) {
	rec, _ := doJSON(t, New(), "POST", "/design/batch", map[string]any{"items": []DesignRequest{}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
}

// One malformed item fails alone; its neighbours still succeed.
func TestDesignBatchMalformedItem(t *testing.T) {
	srv := New()
	items := []DesignRequest{
		{Group: "G-1", Seed: 5},
		{Group: "no-such-group"},
		{Spec: json.RawMessage(`{"minGainDB":85,"minGBWHz":7e5,"minPMDeg":55,"maxPowerW":2.5e-4,"clF":1e-11}`)},
		{Spec: json.RawMessage(`{"minGainDB":-3}`)},
	}
	code, lines, sum := postBatch(t, srv, "/design/batch", map[string]any{"items": items})
	if code != http.StatusOK || len(lines) != 4 || sum == nil {
		t.Fatalf("status %d, %d lines", code, len(lines))
	}
	got := byIndex(lines)
	if !got[0].OK || !got[2].OK {
		t.Errorf("valid items failed: %+v / %+v", got[0], got[2])
	}
	if got[1].OK || !strings.Contains(got[1].Error, "unknown group") {
		t.Errorf("item 1: %+v", got[1])
	}
	if got[3].OK || !strings.Contains(got[3].Error, "spec:") {
		t.Errorf("item 3: %+v", got[3])
	}
	if sum.OK != 2 || sum.Failed != 2 {
		t.Errorf("summary %+v", sum)
	}
}

func TestSimulateBatch(t *testing.T) {
	srv := New()
	rc := "* rc\nV1 in 0 AC 1\nR1 in out 10k\nC1 out 0 4p\n.end\n"
	items := []SimulateRequest{
		{Netlist: rc},
		{Netlist: "R1 a 0"}, // parse error: too few fields
		{Netlist: rc},       // duplicate of item 0 → coalesced or cached
	}
	code, lines, sum := postBatch(t, srv, "/simulate/batch", map[string]any{"items": items})
	if code != http.StatusOK || len(lines) != 3 || sum == nil {
		t.Fatalf("status %d, %d lines", code, len(lines))
	}
	got := byIndex(lines)
	if !got[0].OK || got[0].Metrics == nil {
		t.Errorf("item 0: %+v", got[0])
	}
	if got[1].OK || !strings.Contains(got[1].Error, "netlist") {
		t.Errorf("item 1: %+v", got[1])
	}
	if !got[2].OK || (!got[2].Coalesced && !got[2].Cached) {
		t.Errorf("item 2 not deduped: %+v", got[2])
	}
	if sum.OK != 2 || sum.Failed != 1 {
		t.Errorf("summary %+v", sum)
	}
}

// Client cancellation mid-batch: the stream stops, per-item waiters
// detach, and after drain the process is back to its goroutine baseline
// (goleak-style check).
func TestDesignBatchClientCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()

	svc := NewWithOptions(Options{Workers: 1, Queue: 64})
	ts := httptest.NewServer(svc)

	items := make([]DesignRequest, 12)
	for i := range items {
		items[i] = DesignRequest{Group: "G-1", Seed: int64(1000 + i)} // distinct: no coalescing
	}
	body, err := json.Marshal(map[string]any{"items": items})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/design/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one streamed line, then drop the connection mid-batch.
	buf := make([]byte, 1)
	if _, err := io.ReadAtLeast(resp.Body, buf, 1); err != nil {
		t.Fatalf("no stream output before cancel: %v", err)
	}
	cancel()
	resp.Body.Close()

	ts.Close()
	drainCtx, done := context.WithTimeout(context.Background(), 10*time.Second)
	defer done()
	if err := svc.Shutdown(drainCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The waiter goroutines and pool workers must all exit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// A full queue rejects batch items one by one at both batch endpoints.
// Behind a pinned worker and a one-slot queue the first of three
// distinct items queues, the other two get error lines at once, and
// once the worker is released the queued item gets an ok line and the
// summary counts both outcomes.
func TestBatchQueueFullIsPerItem(t *testing.T) {
	srv := NewWithOptions(Options{Workers: 1, Queue: 1})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// A stream that never sends a line it owes fails the test instead of
	// hanging it.
	client := &http.Client{Timeout: 10 * time.Second}

	const rc = "* rc\nV1 in 0 AC 1\nR1 in out %dk\nC1 out 0 4p\n.end\n"
	for _, tc := range []struct {
		name  string
		items any
	}{
		{"design", []DesignRequest{{Group: "G-1", Seed: 1}, {Group: "G-1", Seed: 2}, {Group: "G-1", Seed: 3}}},
		{"simulate", []SimulateRequest{{Netlist: fmt.Sprintf(rc, 1)}, {Netlist: fmt.Sprintf(rc, 2)}, {Netlist: fmt.Sprintf(rc, 3)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			body, err := json.Marshal(map[string]any{"items": tc.items})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Post(ts.URL+"/"+tc.name+"/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, want 200 with one line per item", resp.StatusCode)
			}
			dec := json.NewDecoder(resp.Body)
			next := func(v any) {
				t.Helper()
				if err := dec.Decode(v); err != nil {
					t.Fatalf("reading NDJSON line: %v", err)
				}
			}
			// The rejected items are answered while the worker is still pinned.
			for _, idx := range []int{1, 2} {
				var line BatchItemResult
				next(&line)
				if line.Index != idx || line.OK || !strings.Contains(line.Error, jobs.ErrQueueFull.Error()) {
					t.Fatalf("want a queue-full error line for item %d, got %+v", idx, line)
				}
			}
			release <- struct{}{}
			var line BatchItemResult
			next(&line)
			if line.Index != 0 || !line.OK {
				t.Fatalf("want an ok line for item 0, got %+v", line)
			}
			var sum BatchSummary
			next(&sum)
			if !sum.Summary || sum.Items != 3 || sum.OK != 1 || sum.Failed != 2 {
				t.Errorf("summary %+v, want 3 items: 1 ok and 2 failed", sum)
			}
		})
	}
}
