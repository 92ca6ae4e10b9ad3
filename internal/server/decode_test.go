package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"artisan/internal/cluster"
	"artisan/internal/core"
	"artisan/internal/jobs"
)

// trailingBodies are design bodies with data after their JSON value.
var trailingBodies = []string{
	`{"group":"G-1","seed":1} garbage`,
	`{"group":"G-1","seed":1}{"group":"G-9"}`,
	`{"group":"G-1","seed":1}}`,
}

// TestTrailingDataRejected: a POST body is one JSON value. Data after it
// is a 400 on every POST route, on a node and through a router (which
// places such a body by its bytes); a trailing newline is not data.
func TestTrailingDataRejected(t *testing.T) {
	node := newServer(t, Options{Workers: 1})
	ts := httptest.NewServer(node)
	t.Cleanup(func() {
		ts.Close()
		_ = node.Shutdown(context.Background())
	})
	rt, err := cluster.NewRouter(cluster.RouterConfig{Nodes: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	const design = `{"group":"G-1","seed":1}`
	sim := fmt.Sprintf(`{"netlist":%q}`, "* rc\nV1 in 0 AC 1\nR1 in out 10k\nC1 out 0 4p\n.end\n")
	routes := []struct {
		path, body string
		ok         int
	}{
		{"/design", design, http.StatusOK},
		{"/jobs", design, http.StatusAccepted},
		{"/design/batch", `{"items":[` + design + `]}`, http.StatusOK},
		{"/simulate", sim, http.StatusOK},
		{"/simulate/batch", `{"items":[` + sim + `]}`, http.StatusOK},
	}
	for _, h := range []struct {
		name string
		h    http.Handler
	}{{"node", node}, {"router", rt}} {
		for _, route := range routes {
			// On /design these are exactly trailingBodies.
			for _, tail := range []string{" garbage", `{"group":"G-9"}`, "}"} {
				rec := postJSON(t, h.h, route.path, "application/json", []byte(route.body+tail))
				var out map[string]string
				if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &out) != nil || out["error"] == "" {
					t.Errorf("%s %s %q: %d %s, want 400 with a JSON error", h.name, route.path, route.body+tail, rec.Code, rec.Body)
				}
			}
			if rec := postJSON(t, h.h, route.path, "application/json", []byte(route.body+"\n")); rec.Code != route.ok {
				t.Errorf("%s %s with a trailing newline: %d %s, want %d", h.name, route.path, rec.Code, rec.Body, route.ok)
			}
		}
	}
}

// TestWriteJobErr: the one map from a job error to its reply, each a
// JSON {"error":…} body.
func TestWriteJobErr(t *testing.T) {
	s := newServer(t, Options{Workers: 1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	wrap := func(err error) error { return fmt.Errorf("design: %w", err) }
	for _, c := range []struct {
		err        error
		status     int
		retryAfter bool
	}{
		{jobs.ErrQueueFull, http.StatusServiceUnavailable, true},
		{jobs.ErrShutdown, http.StatusServiceUnavailable, false},
		{cluster.ErrStoreReadOnly, http.StatusServiceUnavailable, false},
		{jobs.ErrNotFound, http.StatusNotFound, false},
		{jobs.ErrFinished, http.StatusConflict, false},
		{wrap(context.Canceled), http.StatusServiceUnavailable, false},
		{wrap(context.DeadlineExceeded), http.StatusServiceUnavailable, false},
		{errors.New("boom"), http.StatusInternalServerError, false},
	} {
		rec := httptest.NewRecorder()
		s.writeJobErr(rec, c.err)
		if rec.Code != c.status {
			t.Errorf("%v: status %d, want %d", c.err, rec.Code, c.status)
		}
		if got := rec.Header().Get("Retry-After") != ""; got != c.retryAfter {
			t.Errorf("%v: Retry-After set %v, want %v", c.err, got, c.retryAfter)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%v: Content-Type %q, want application/json", c.err, ct)
		}
		var out map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["error"] != c.err.Error() {
			t.Errorf("%v: body %q, want {\"error\":%q}", c.err, rec.Body, c.err.Error())
		}
	}
}

// FuzzDecodeBody: for any body under the limit, the node's decode into
// core.Request succeeds exactly when json.Unmarshal does, the router's
// test in placeKey, and then yields the same request. A failed decode
// answers 400 (413 over the limit) with a JSON error body and never
// panics.
func FuzzDecodeBody(f *testing.F) {
	for _, body := range append([]string{`{"group":"G-1","seed":1}` + "\n", `{nope`, ``, ` null `},
		trailingBodies...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/design", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		var got, want core.Request
		ok := decodeJSON(rec, req, &got)
		wantErr := json.Unmarshal(body, &want)
		if ok != (wantErr == nil) {
			t.Fatalf("decode ok %v, json.Unmarshal error %v", ok, wantErr)
		}
		if ok {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %+v, json.Unmarshal %+v", got, want)
			}
			return
		}
		status := http.StatusBadRequest
		if len(body) > cluster.MaxBodyBytes {
			status = http.StatusRequestEntityTooLarge
		}
		var out map[string]string
		if rec.Code != status || json.Unmarshal(rec.Body.Bytes(), &out) != nil || out["error"] == "" {
			t.Fatalf("failed decode answered %d %q, want %d with a JSON error", rec.Code, rec.Body, status)
		}
	})
}
