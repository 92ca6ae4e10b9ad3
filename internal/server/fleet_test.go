package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"artisan/internal/cluster"
	"artisan/internal/jobs"
	"artisan/internal/spec"
)

// TestTwoNodesBehindRouter drives two real nodes through the consistent-
// hash router: a repeated design is a cache hit on the node that owns its
// body, both batch endpoints stream their NDJSON through the proxy, and
// a job is polled through the router by its id prefix.
func TestTwoNodesBehindRouter(t *testing.T) {
	var nodes []*Server
	var urls []string
	for _, id := range []string{"n1", "n2"} {
		s, err := NewServer(Options{Workers: 2, NodeID: id})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(func() {
			ts.Close()
			_ = s.Shutdown(context.Background())
		})
		nodes = append(nodes, s)
		urls = append(urls, ts.URL)
	}
	// No hedging: a job read goes to the owner the id prefix names and to
	// no other node.
	rt, err := cluster.NewRouter(cluster.RouterConfig{Nodes: urls, HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	waitForNodeIDs(t, rt, 2)

	// POST /design twice with the same body: the repeat is served from
	// the cache of the node that owns the body.
	req := DesignRequest{Group: "G-2", Seed: 5}
	for i, wantCached := range []bool{false, true} {
		rec, body := doJSON(t, rt, "POST", "/design", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("design %d = %d: %s", i, rec.Code, body)
		}
		var resp DesignResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Cached != wantCached {
			t.Fatalf("design %d cached = %v, want %v", i, resp.Cached, wantCached)
		}
	}
	hits := []int64{nodes[0].Jobs().CacheStats().Hits, nodes[1].Jobs().CacheStats().Hits}
	if hits[0]+hits[1] != 1 || hits[0]*hits[1] != 0 {
		t.Fatalf("cache hits per node = %v, want the one repeat on one node", hits)
	}

	// POST /design/batch: one NDJSON line per item, then the summary.
	items := make([]DesignRequest, 4)
	for i := range items {
		items[i] = DesignRequest{Group: "G-1", Seed: int64(100 + i)}
	}
	code, lines, sum := postBatch(t, rt, "/design/batch", map[string]any{"items": items})
	if code != http.StatusOK || len(lines) != len(items) || sum == nil {
		t.Fatalf("design batch: status %d, %d lines, summary %v", code, len(lines), sum)
	}
	if sum.Items != len(items) || sum.OK != len(items) {
		t.Fatalf("design batch summary = %+v, want %d items all ok", sum, len(items))
	}

	// POST /simulate/batch through the same proxy.
	rc := "* rc\nV1 in 0 AC 1\nR1 in out 10k\nC1 out 0 4p\n.end\n"
	sims := []SimulateRequest{{Netlist: rc}, {Netlist: strings.Replace(rc, "4p", "8p", 1)}}
	code, lines, sum = postBatch(t, rt, "/simulate/batch", map[string]any{"items": sims})
	if code != http.StatusOK || len(lines) != len(sims) || sum == nil || sum.OK != len(sims) {
		t.Fatalf("simulate batch: status %d, %d lines, summary %+v", code, len(lines), sum)
	}
	for _, l := range lines {
		if !l.OK || l.Metrics == nil {
			t.Errorf("simulate batch line %+v", l)
		}
	}

	// POST /jobs, then GET /jobs/{id}: the id carries its node's prefix,
	// and the router sends the read to that node alone.
	rec, body := doJSON(t, rt, "POST", "/jobs", DesignRequest{Group: "G-3", Seed: 9})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("jobs submit = %d: %s", rec.Code, body)
	}
	var accepted jobJSON
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	owner, _, ok := jobs.ParseID(accepted.ID)
	if !ok || (owner != "n1" && owner != "n2") {
		t.Fatalf("job id %q carries no node prefix", accepted.ID)
	}
	if j := pollJob(t, rt, accepted.ID); j.Status != "done" {
		t.Fatalf("job %s finished %s: %s", j.ID, j.Status, j.Error)
	}
	for _, s := range nodes {
		served := strings.Contains(scrape(t, s), `route="GET /jobs/{id}"`)
		if want := s.opts.NodeID == owner; served != want {
			t.Errorf("node %s served reads of %s: %v, want %v", s.opts.NodeID, accepted.ID, served, want)
		}
	}
}

// TestRouterPlacesEquivalentDesigns: through the router, a body that
// spells an earlier design differently is served from the cache of the
// node that ran it.
func TestRouterPlacesEquivalentDesigns(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		s := newServer(t, Options{Workers: 1})
		ts := httptest.NewServer(s)
		t.Cleanup(func() {
			ts.Close()
			_ = s.Shutdown(context.Background())
		})
		urls = append(urls, ts.URL)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Nodes: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	g1, err := spec.Group("G-1")
	if err != nil {
		t.Fatal(err)
	}
	inline, err := json.Marshal(g1)
	if err != nil {
		t.Fatal(err)
	}
	design := func(body string) DesignResponse {
		t.Helper()
		req := httptest.NewRequest("POST", "/design", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, req)
		var resp DesignResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			t.Fatalf("%s: %d %s", body, rec.Code, rec.Body)
		}
		return resp
	}
	for seed := 1; seed <= 3; seed++ {
		orig := fmt.Sprintf(`{"group":"G-1","seed":%d}`, seed)
		if design(orig).Cached {
			t.Fatalf("%s: first run read cached", orig)
		}
		for _, v := range []string{
			fmt.Sprintf(`{"group":"G-1","seed":%d,"backend":"ga"}`, seed),
			fmt.Sprintf(`{"group":"G-1","seed":%d,"tune":false}`, seed),
			fmt.Sprintf(`{"group":"G-1","seed":%d,"treeWidth":1}`, seed),
			fmt.Sprintf(`{"group":"G-1","seed":%d,"temperature":0}`, seed),
			fmt.Sprintf(`{"group":"G-1","seed":%d,"note":"again"}`, seed),
			fmt.Sprintf("{ \"seed\" : %d,\n\t\"group\" : \"G-1\" }", seed),
			fmt.Sprintf(`{"spec":%s,"seed":%d}`, inline, seed),
		} {
			if !design(v).Cached {
				t.Errorf("%s after %s: not cached", v, orig)
			}
		}
	}
}

// waitForNodeIDs waits until the router's health probes have learned n
// node ids, which it needs to route /jobs/{id} by prefix.
func waitForNodeIDs(t *testing.T, rt http.Handler, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := doJSON(t, rt, "GET", "/healthz", nil)
		var health struct {
			Nodes []struct {
				Node string `json:"node"`
			} `json:"nodes"`
		}
		if err := json.Unmarshal(body, &health); err != nil {
			t.Fatal(err)
		}
		known := 0
		for _, nd := range health.Nodes {
			if nd.Node != "" {
				known++
			}
		}
		if known == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("router learned %d of %d node ids: %s", known, n, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeadlineHeaderAtBothHops: X-Deadline-Ms sets a job's budget only
// when it holds a positive whole number of milliseconds, whether the
// router or the node parses it. The header is advisory, so garbage is
// ignored at either hop and never turned into a 400.
func TestDeadlineHeaderAtBothHops(t *testing.T) {
	node, err := NewServer(Options{Workers: 2, NodeID: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(node)
	t.Cleanup(func() {
		ts.Close()
		_ = node.Shutdown(context.Background())
	})
	rt, err := cluster.NewRouter(cluster.RouterConfig{Nodes: []string{ts.URL}, HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	hops := []struct {
		name string
		h    http.Handler
	}{{"router", rt}, {"node", node}}
	seed := int64(0)
	for _, tc := range []struct {
		header string // empty: no header
		budget time.Duration
	}{
		{"", 0}, {"abc", 0}, {"-5", 0}, {"0", 0}, {"1e3", 0},
		{"250", 250 * time.Millisecond}, {" 250 ", 250 * time.Millisecond},
	} {
		for _, hop := range hops {
			hdr := map[string]string{}
			if tc.header != "" {
				hdr[cluster.DeadlineHeader] = tc.header
			}
			seed++ // a fresh body each time: a cache hit carries no deadline
			rec, body := doJSONHdr(t, hop.h, "POST", "/jobs", DesignRequest{Group: "G-1", Seed: seed}, hdr)
			if rec.Code != http.StatusAccepted {
				t.Errorf("%s, header %q: status %d: %s", hop.name, tc.header, rec.Code, body)
				continue
			}
			var j jobJSON
			if err := json.Unmarshal(body, &j); err != nil {
				t.Fatal(err)
			}
			if tc.budget == 0 {
				if j.Deadline != "" {
					t.Errorf("%s, header %q: deadline %s, want none", hop.name, tc.header, j.Deadline)
				}
				continue
			}
			created, err1 := time.Parse(time.RFC3339Nano, j.Created)
			deadline, err2 := time.Parse(time.RFC3339Nano, j.Deadline)
			if err1 != nil || err2 != nil {
				t.Errorf("%s, header %q: created %q, deadline %q, want a %v budget", hop.name, tc.header, j.Created, j.Deadline, tc.budget)
				continue
			}
			// The budget is stamped before the job is created, and the
			// router forwards only what is left of it.
			if d := deadline.Sub(created); d > tc.budget || d < tc.budget-100*time.Millisecond {
				t.Errorf("%s, header %q: budget %v, want %v", hop.name, tc.header, d, tc.budget)
			}
		}
	}
}
