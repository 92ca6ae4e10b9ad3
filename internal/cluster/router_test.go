package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"artisan/internal/backend"
	"artisan/internal/resilience"
	"artisan/internal/spec"
)

// fakeWorker is a minimal artisan-server stand-in: /healthz with a node
// id and a drain switch, plus echo handlers that tag responses with the
// node id so tests can see where a request landed.
type fakeWorker struct {
	id       string
	draining atomic.Bool
	hits     atomic.Int64
	srv      *httptest.Server
}

func newFakeWorker(t *testing.T, id string) *fakeWorker {
	t.Helper()
	w := &fakeWorker{id: id}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		status := http.StatusOK
		if w.draining.Load() {
			status = http.StatusServiceUnavailable
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(status)
		_ = json.NewEncoder(rw).Encode(map[string]string{"node": w.id})
	})
	echo := func(rw http.ResponseWriter, r *http.Request) {
		w.hits.Add(1)
		body, _ := io.ReadAll(r.Body)
		_ = json.NewEncoder(rw).Encode(map[string]string{
			"node": w.id, "body": string(body), "rid": r.Header.Get("X-Request-ID"),
		})
	}
	mux.HandleFunc("POST /design", echo)
	mux.HandleFunc("POST /jobs", echo)
	mux.HandleFunc("GET /jobs/{id}", func(rw http.ResponseWriter, r *http.Request) {
		w.hits.Add(1)
		id := r.PathValue("id")
		if !strings.HasPrefix(id, w.id+"-j-") {
			http.Error(rw, `{"error":"not found"}`, http.StatusNotFound)
			return
		}
		_ = json.NewEncoder(rw).Encode(map[string]string{"node": w.id, "job": id})
	})
	mux.HandleFunc("GET /stats", func(rw http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(rw).Encode(map[string]string{"node": w.id})
	})
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.srv.Close)
	return w
}

func newTestRouter(t *testing.T, workers ...*fakeWorker) *Router {
	t.Helper()
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.srv.URL
	}
	rt, err := NewRouter(RouterConfig{
		Nodes:           urls,
		HealthInterval:  20 * time.Millisecond,
		HealthTimeout:   time.Second,
		Retry:           resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
		BreakerCooldown: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func postJSON(t *testing.T, url, body string) (int, map[string]string, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	blob, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(blob, &out)
	return resp.StatusCode, out, resp.Header
}

// TestPlaceKeyEquivalentBodies: a design body and any body its node
// resolves to the same design key get the same owners at every ring
// size, on both design routes; distinct designs still spread, and every
// other body is placed by its bytes.
func TestPlaceKeyEquivalentBodies(t *testing.T) {
	// Formats over (group name, seed, the group as an inline spec).
	const orig = `{"group":%[1]q,"seed":%[2]d}`
	pairs := [][2]string{
		{orig, `{"group":%[1]q,"seed":%[2]d,"backend":"ga"}`},
		{orig, `{"group":%[1]q,"seed":%[2]d,"tune":false}`},
		{orig, `{"group":%[1]q,"seed":%[2]d,"treeWidth":1}`},
		{orig, `{"group":%[1]q,"seed":%[2]d,"temperature":0}`},
		{orig, `{"group":%[1]q,"seed":%[2]d,"note":"again"}`},
		{orig, "{ \"seed\" : %[2]d,\n\t\"group\" : %[1]q }"},
		{orig, `{"spec":%[3]s,"seed":%[2]d}`},
		{`{"group":%[1]q,"seed":%[2]d,"tune":true}`,
			`{"group":%[1]q,"seed":%[2]d,"tune":true,"backend":"` + backend.DefaultName + `"}`},
	}
	const seeds = 200
	for size := 1; size <= 5; size++ {
		ring := NewRing(DefaultVNodes)
		for i := 0; i < size; i++ {
			ring.Add(fmt.Sprintf("http://node-%d", i))
		}
		primaries := map[string]bool{}
		for n := 0; n < seeds; n++ {
			g, err := spec.Group(fmt.Sprintf("G-%d", 1+n%5))
			if err != nil {
				t.Fatal(err)
			}
			inline, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range []string{"/design", "/jobs"} {
				for _, p := range pairs {
					a, b := fmt.Sprintf(p[0], g.Name, n, inline), fmt.Sprintf(p[1], g.Name, n, inline)
					oa := ring.Owners(placeKey(path, []byte(a)), size)
					ob := ring.Owners(placeKey(path, []byte(b)), size)
					if fmt.Sprint(oa) != fmt.Sprint(ob) {
						t.Fatalf("ring of %d, %s: %s owned by %v, %s by %v", size, path, a, oa, b, ob)
					}
				}
			}
			body := fmt.Sprintf(orig, g.Name, n)
			primaries[ring.Owners(placeKey("/design", []byte(body)), 1)[0]] = true
		}
		if len(primaries) != size {
			t.Fatalf("ring of %d: %d distinct designs landed on %d nodes", size, seeds, len(primaries))
		}
	}
	// Other routes, and design bodies no node accepts, place by bytes.
	for _, tc := range [][2]string{
		{"/simulate", `{"group":"G-1"}`}, {"/design", "not json"}, {"/jobs", `{"group":"G-9"}`},
	} {
		if got := placeKey(tc[0], []byte(tc[1])); got != tc[1] {
			t.Errorf("%s %s placed by %q, want its bytes", tc[0], tc[1], got)
		}
	}
}

// TestRouterOversizeBodyJSON: a body over MaxBody is refused at the
// router with 413 and the JSON error body a node would send.
func TestRouterOversizeBodyJSON(t *testing.T) {
	w1 := newFakeWorker(t, "n1")
	rt, err := NewRouter(RouterConfig{Nodes: []string{w1.srv.URL}, MaxBody: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	status, out, hdr := postJSON(t, front.URL+"/design", fmt.Sprintf(`{"prompt":%q}`, strings.Repeat("x", 64)))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", status)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	if out["error"] == "" {
		t.Errorf("body %v carries no error", out)
	}
	if w1.hits.Load() != 0 {
		t.Error("oversize body reached the node")
	}
}

// TestRouterShardsDeterministically: identical bodies — including
// key-order variants — always land on the same node, so they share its
// cache; distinct bodies spread out.
func TestRouterShardsDeterministically(t *testing.T) {
	w1, w2 := newFakeWorker(t, "n1"), newFakeWorker(t, "n2")
	rt := newTestRouter(t, w1, w2)
	front := httptest.NewServer(rt)
	defer front.Close()

	var owner string
	for i := 0; i < 6; i++ {
		body := `{"group":"G-1","seed":7}`
		if i%2 == 1 {
			body = `{"seed":7,  "group":"G-1"}` // same request, different spelling
		}
		status, out, _ := postJSON(t, front.URL+"/design", body)
		if status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		if owner == "" {
			owner = out["node"]
		}
		if out["node"] != owner {
			t.Fatalf("duplicate request moved from %s to %s", owner, out["node"])
		}
		if out["rid"] == "" {
			t.Error("proxied request missing X-Request-ID")
		}
	}

	spread := map[string]bool{}
	for i := 0; i < 40; i++ {
		_, out, _ := postJSON(t, front.URL+"/design", fmt.Sprintf(`{"seed":%d}`, i))
		spread[out["node"]] = true
	}
	if len(spread) != 2 {
		t.Fatalf("40 distinct bodies all landed on %v; ring not spreading", spread)
	}
}

// TestRouterFailover: a dead node's keys fail over to the survivor; the
// response still reaches the client.
func TestRouterFailover(t *testing.T) {
	w1, w2 := newFakeWorker(t, "n1"), newFakeWorker(t, "n2")
	rt := newTestRouter(t, w1, w2)
	front := httptest.NewServer(rt)
	defer front.Close()

	// Find a body owned by w2, then kill w2.
	var body string
	for i := 0; ; i++ {
		b := fmt.Sprintf(`{"seed":%d}`, i)
		owners := rt.ring.Owners(placeKey("/design", []byte(b)), 2)
		if owners[0] == w2.srv.URL {
			body = b
			break
		}
	}
	w2.srv.Close()

	status, out, _ := postJSON(t, front.URL+"/design", body)
	if status != http.StatusOK {
		t.Fatalf("status %d after node death, want failover 200", status)
	}
	if out["node"] != "n1" {
		t.Fatalf("failover served by %q, want n1", out["node"])
	}
}

// TestRouterShedPassThrough: a 503 with Retry-After is the admission
// layer shedding load deliberately — the router must deliver it, not
// hammer the next node.
func TestRouterShedPassThrough(t *testing.T) {
	shedding := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			_ = json.NewEncoder(rw).Encode(map[string]string{"node": "shed"})
			return
		}
		rw.Header().Set("Retry-After", "7")
		rw.WriteHeader(http.StatusServiceUnavailable)
		_, _ = rw.Write([]byte(`{"error":"shed"}`))
	}))
	defer shedding.Close()
	w2 := newFakeWorker(t, "n2")

	rt, err := NewRouter(RouterConfig{
		Nodes:          []string{shedding.URL, w2.srv.URL},
		HealthInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	// Find a body owned by the shedding node.
	var body string
	for i := 0; ; i++ {
		b := fmt.Sprintf(`{"seed":%d}`, i)
		if owners := rt.ring.Owners(placeKey("/design", []byte(b)), 2); owners[0] == shedding.URL {
			body = b
			break
		}
	}
	status, _, hdr := postJSON(t, front.URL+"/design", body)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want the deliberate 503 passed through", status)
	}
	if hdr.Get("Retry-After") != "7" {
		t.Fatalf("Retry-After = %q, want preserved 7", hdr.Get("Retry-After"))
	}
	if w2.hits.Load() != 0 {
		t.Fatal("router failed a deliberate shed over to the next node")
	}
}

// TestRouterDrainingNodeLeavesRing: a node turning 503 on /healthz is
// removed on the next probe; traffic and the router's own /healthz
// reflect it, and the node rejoins when it recovers.
func TestRouterDrainingNodeLeavesRing(t *testing.T) {
	w1, w2 := newFakeWorker(t, "n1"), newFakeWorker(t, "n2")
	rt := newTestRouter(t, w1, w2)
	front := httptest.NewServer(rt)
	defer front.Close()

	w2.draining.Store(true)
	waitForCond(t, func() bool { return rt.ring.Size() == 1 })

	for i := 0; i < 10; i++ {
		status, out, _ := postJSON(t, front.URL+"/design", fmt.Sprintf(`{"seed":%d}`, i))
		if status != http.StatusOK || out["node"] != "n1" {
			t.Fatalf("request %d: status %d node %q during drain", i, status, out["node"])
		}
	}

	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Healthy int `json:"healthy"`
		Total   int `json:"total"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health.Healthy != 1 || health.Total != 2 {
		t.Fatalf("router health = %d/%d, want 1/2", health.Healthy, health.Total)
	}

	w2.draining.Store(false)
	waitForCond(t, func() bool { return rt.ring.Size() == 2 })
}

// TestRouterAllNodesDown: with every node out, /healthz is 503 and
// sharded requests are rejected, not hung.
func TestRouterAllNodesDown(t *testing.T) {
	w1 := newFakeWorker(t, "n1")
	rt := newTestRouter(t, w1)
	front := httptest.NewServer(rt)
	defer front.Close()

	w1.draining.Store(true)
	waitForCond(t, func() bool { return rt.ring.Size() == 0 })

	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router /healthz = %d with no healthy nodes, want 503", resp.StatusCode)
	}
	status, _, _ := postJSON(t, front.URL+"/design", `{"seed":1}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("sharded request = %d with empty ring, want 503", status)
	}
}

// TestRouterJobByIDPrefixRouting: ids "<node>-j-<n>" route straight to
// their owner once the health loop has learned node ids.
func TestRouterJobByIDPrefixRouting(t *testing.T) {
	w1, w2 := newFakeWorker(t, "n1"), newFakeWorker(t, "n2")
	rt := newTestRouter(t, w1, w2)
	front := httptest.NewServer(rt)
	defer front.Close()

	// Wait for the health loop's first probe to learn both node ids.
	waitForCond(t, func() bool {
		for _, n := range rt.nodes {
			if n.id() == "" {
				return false
			}
		}
		return true
	})
	resp, err := http.Get(front.URL + "/jobs/n2-j-5")
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out["node"] != "n2" || out["job"] != "n2-j-5" {
		t.Fatalf("status %d out %v, want n2 to answer", resp.StatusCode, out)
	}
	if w1.hits.Load() != 0 {
		t.Error("prefix-routed poll also hit n1")
	}

	// Unknown job id: fans out, then reports 404.
	resp, err = http.Get(front.URL + "/jobs/zz-j-1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job id = %d, want 404", resp.StatusCode)
	}
}

// TestRouterStatsFanout merges per-node stats with health flags.
func TestRouterStatsFanout(t *testing.T) {
	w1, w2 := newFakeWorker(t, "n1"), newFakeWorker(t, "n2")
	rt := newTestRouter(t, w1, w2)
	front := httptest.NewServer(rt)
	defer front.Close()

	resp, err := http.Get(front.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Nodes []struct {
			Node    string          `json:"node"`
			Healthy bool            `json:"healthy"`
			Stats   json.RawMessage `json:"stats"`
		} `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Nodes) != 2 {
		t.Fatalf("stats fanout covered %d nodes", len(out.Nodes))
	}
	for _, n := range out.Nodes {
		if !n.Healthy || len(n.Stats) == 0 {
			t.Fatalf("node %+v missing stats", n)
		}
	}
}

// TestRouterJobsFanout: GET /jobs merges every node's listing in URL
// order and leaves out a node that is down or answers with invalid JSON.
func TestRouterJobsFanout(t *testing.T) {
	stub := func(id, jobs string) *fakeWorker {
		w := &fakeWorker{id: id}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(rw).Encode(map[string]string{"node": id})
		})
		mux.HandleFunc("GET /jobs", func(rw http.ResponseWriter, r *http.Request) {
			_, _ = io.WriteString(rw, jobs)
		})
		w.srv = httptest.NewServer(mux)
		t.Cleanup(w.srv.Close)
		return w
	}
	bodies := map[string]string{
		"n1": `{"jobs":[{"id":"n1-j-1"}]}`,
		"n2": `{"jobs":[{"id":"n2-j-1"},{"id":"n2-j-2"}]}`,
	}
	good := []*fakeWorker{stub("n1", bodies["n1"]), stub("n2", bodies["n2"])}
	sort.Slice(good, func(i, j int) bool { return good[i].srv.URL < good[j].srv.URL })
	garbled := stub("n3", `{"jobs":[`)
	down := stub("n4", `{"jobs":[]}`)
	down.srv.Close()
	rt := newTestRouter(t, good[0], good[1], garbled, down)
	// Node ids arrive with the first health probe.
	for _, w := range good {
		for deadline := time.Now().Add(5 * time.Second); rt.nodes[w.srv.URL].id() == ""; {
			if time.Now().After(deadline) {
				t.Fatalf("router never learned node %s's id", w.id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	front := httptest.NewServer(rt)
	defer front.Close()

	resp, err := http.Get(front.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Nodes []struct {
			Node string          `json:"node"`
			URL  string          `json:"url"`
			Jobs json.RawMessage `json:"jobs"`
		} `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Nodes) != len(good) {
		var got []string
		for _, n := range out.Nodes {
			got = append(got, n.Node)
		}
		t.Fatalf("jobs fanout merged nodes %v, want n1 and n2", got)
	}
	for i, n := range out.Nodes {
		w := good[i]
		if n.Node != w.id || n.URL != w.srv.URL || string(n.Jobs) != bodies[w.id] {
			t.Errorf("entry %d = {%s %s %s}, want {%s %s %s}", i, n.Node, n.URL, n.Jobs, w.id, w.srv.URL, bodies[w.id])
		}
	}
}

// TestRouterConfigValidation rejects empty and duplicate node lists.
func TestRouterConfigValidation(t *testing.T) {
	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Error("empty node list accepted")
	}
	if _, err := NewRouter(RouterConfig{Nodes: []string{"http://a", "http://a/"}}); err == nil {
		t.Error("duplicate node URL accepted")
	}
	if _, err := NewRouter(RouterConfig{Nodes: []string{""}}); err == nil {
		t.Error("empty node URL accepted")
	}
}

// TestRouterStreamsChunks: the router hands each upstream chunk to the
// client as it arrives (NDJSON batch items must not wait for the whole
// stream), and reusing its copy buffers never mixes up two responses.
func TestRouterStreamsChunks(t *testing.T) {
	release := make(chan struct{})
	w := &fakeWorker{id: "n1"}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(rw).Encode(map[string]string{"node": w.id})
	})
	mux.HandleFunc("POST /design/batch", func(rw http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(rw, "first %s\n", body)
		rw.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		// Larger than one copy buffer, so the tail spans several chunks.
		fmt.Fprintf(rw, "%s\nlast %s\n", strings.Repeat(string(body), 40<<10), body)
	})
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.srv.Close)
	front := httptest.NewServer(newTestRouter(t, w))
	defer front.Close()
	client := &http.Client{Timeout: 10 * time.Second}

	for i, body := range []string{"a", "b"} {
		resp, err := client.Post(front.URL+"/design/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		rd := bufio.NewReader(resp.Body)
		first, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("request %d: first line never arrived before the stream ended: %v", i, err)
		}
		if first != "first "+body+"\n" {
			t.Fatalf("request %d: first line %q", i, first)
		}
		if i == 0 {
			close(release)
		}
		rest, err := io.ReadAll(rd)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.Repeat(body, 40<<10) + "\nlast " + body + "\n"; string(rest) != want {
			t.Fatalf("request %d: tail of %d bytes differs from the upstream's %d", i, len(rest), len(want))
		}
	}
}
