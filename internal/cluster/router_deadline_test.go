package cluster

// Deadline-budget and hedged-read tests for the router: the
// X-Deadline-Ms budget is minted/decremented per hop, an exhausted
// budget turns into 504 (never a fresh allowance on the next node), and
// a slow owner on the job-poll path is hedged by a fleet sweep.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"artisan/internal/resilience"
)

// deadlineWorker records the X-Deadline-Ms value of each /design hit.
type deadlineWorker struct {
	id   string
	seen chan int64
	srv  *httptest.Server
}

func newDeadlineWorker(t *testing.T, id string) *deadlineWorker {
	t.Helper()
	w := &deadlineWorker{id: id, seen: make(chan int64, 64)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(rw).Encode(map[string]string{"node": w.id})
	})
	mux.HandleFunc("POST /design", func(rw http.ResponseWriter, r *http.Request) {
		ms, _ := strconv.ParseInt(r.Header.Get(DeadlineHeader), 10, 64)
		w.seen <- ms
		_ = json.NewEncoder(rw).Encode(map[string]string{"node": w.id})
	})
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.srv.Close)
	return w
}

// TestRouterDeadlineStamping: a client budget is re-stamped on the hop
// with the *remaining* milliseconds (never more than the client gave),
// and DefaultDeadline mints a budget for unbudgeted requests.
func TestRouterDeadlineStamping(t *testing.T) {
	w := newDeadlineWorker(t, "n1")
	rt, err := NewRouter(RouterConfig{
		Nodes:           []string{w.srv.URL},
		HealthInterval:  20 * time.Millisecond,
		DefaultDeadline: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	// Explicit client budget wins over the default.
	req, _ := http.NewRequest(http.MethodPost, front.URL+"/design", strings.NewReader(`{"seed":1}`))
	req.Header.Set(DeadlineHeader, "200")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := <-w.seen
	if got < 1 || got > 200 {
		t.Fatalf("hop budget = %dms, want decremented remainder of the client's 200ms", got)
	}

	// No header: the router mints DefaultDeadline.
	status, _, _ := postJSON(t, front.URL+"/design", `{"seed":2}`)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	got = <-w.seen
	if got < 1 || got > 500 {
		t.Fatalf("minted budget = %dms, want within the 500ms default", got)
	}
}

// TestRouterDeadlineExhausted504: when the budget runs out before any
// node produced an answer, the client gets 504 and the exhaustion
// counter ticks — failover attempts must not outlive the client.
func TestRouterDeadlineExhausted504(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			_ = json.NewEncoder(rw).Encode(map[string]string{"node": "slow"})
			return
		}
		time.Sleep(25 * time.Millisecond)
		rw.WriteHeader(http.StatusServiceUnavailable) // no Retry-After: gateway-class
	}))
	defer slow.Close()
	rt, err := NewRouter(RouterConfig{
		Nodes:          []string{slow.URL},
		HealthInterval: 20 * time.Millisecond,
		Retry:          resilience.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	req, _ := http.NewRequest(http.MethodPost, front.URL+"/design", strings.NewReader(`{"seed":3}`))
	req.Header.Set(DeadlineHeader, "30") // one slow attempt spends it
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 when the budget is exhausted", resp.StatusCode)
	}
	if v := rt.deadlineExpired.Value(); v < 1 {
		t.Fatalf("artisan_router_deadline_exhausted_total = %g, want >= 1", v)
	}
}

// TestRouterHedgedJobRead: an owner sitting on a poll past HedgeDelay
// is raced by a sweep of the rest of the fleet; the fast secondary's
// answer reaches the client and the hedge counter ticks.
func TestRouterHedgedJobRead(t *testing.T) {
	var slowHits atomic.Int64
	mkWorker := func(id string, delay time.Duration) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(rw).Encode(map[string]string{"node": id})
		})
		mux.HandleFunc("GET /jobs/{id}", func(rw http.ResponseWriter, r *http.Request) {
			if delay > 0 {
				slowHits.Add(1)
				time.Sleep(delay)
			}
			_ = json.NewEncoder(rw).Encode(map[string]string{"node": id, "job": r.PathValue("id")})
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}
	owner := mkWorker("n1", 250*time.Millisecond)
	fast := mkWorker("n2", 0)

	rt, err := NewRouter(RouterConfig{
		Nodes:          []string{owner.URL, fast.URL},
		HealthInterval: 10 * time.Millisecond,
		HealthTimeout:  time.Second,
		HedgeDelay:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	waitForCond(t, func() bool {
		for _, n := range rt.nodes {
			if n.id() == "" {
				return false
			}
		}
		return true
	})

	start := time.Now()
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "http://router/jobs/n1-j-9", nil))
	elapsed := time.Since(start)

	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad body %q: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusOK || out["node"] != "n2" {
		t.Fatalf("status %d node %q, want the hedge's n2 answer", rec.Code, out["node"])
	}
	if elapsed >= 250*time.Millisecond {
		t.Fatalf("poll took %s; hedge did not race the slow owner", elapsed)
	}
	if rt.counters.Hedges.Load() < 1 {
		t.Fatal("hedge launched but the router's Hedges counter did not tick")
	}
	if slowHits.Load() < 1 {
		t.Fatal("owner was never tried; hedge must race, not replace, the primary")
	}
}
