package chaos

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"artisan/internal/cluster"
	"artisan/internal/jobs"
)

// EventKind names one scripted fault.
type EventKind string

const (
	EvKill      EventKind = "kill"      // crash-stop a node
	EvRestart   EventKind = "restart"   // reboot a killed node over its data dir
	EvPartition EventKind = "partition" // drop the node's link
	EvHeal      EventKind = "heal"      // clear all network faults on the node
	EvLatency   EventKind = "latency"   // fixed brownout delay on the link
	EvTruncate  EventKind = "truncate"  // cut the next Count response bodies
	EvDiskFault EventKind = "diskfault" // fail the next Count journal appends (<=0: all)
)

// Event is one scripted fault, fired just before submission index At.
// Keying the script to submission indices (not timers) is what makes a
// scenario replay identically across runs.
type Event struct {
	At      int
	Kind    EventKind
	Node    int
	Latency time.Duration
	Count   int
}

// Accepted records one submission the client saw acknowledged.
type Accepted struct {
	ID         string // fleet-unique job id ("n0-j-7")
	Cached     bool   // served from a result cache, not journaled
	DeadlineMs int    // budget the submission carried (0 = none)
}

// NodeSweep is the end-of-run state of one node, gathered while the
// fleet is still live.
type NodeSweep struct {
	Node          int
	Alive         bool
	ReadOnly      bool
	Restarts      int
	Queued        int
	Running       int
	JobStatus     map[string]string // live job id → status
	StatsCorrupt  int               // /stats → store.journal.corrupt
	MetricCorrupt float64           // /metrics → artisan_store_corrupt_total
	MetricRO      float64           // /metrics → artisan_store_readonly
}

// Report is everything the invariant checkers need: what the client
// observed, and what each node claimed at the end.
type Report struct {
	Submitted       int
	Accepted        []Accepted
	AcceptedUnknown int         // 202 whose body was unreadable (truncated response)
	Rejected        map[int]int // non-202 status → count
	Sweeps          []NodeSweep
}

// CachedCount is how many accepted submissions were cache hits.
func (r *Report) CachedCount() int {
	c := 0
	for _, a := range r.Accepted {
		if a.Cached {
			c++
		}
	}
	return c
}

// Run drives the seeded workload through the router while firing the
// fault script, then heals the fleet, restarts dead nodes, waits for
// the drain barrier, and sweeps the end state. The returned report
// feeds CheckAll.
func (f *Fleet) Run() (*Report, error) {
	cfg := f.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &Report{Rejected: make(map[int]int)}
	var bodies []string

	for i := 0; i < cfg.Jobs; i++ {
		for _, ev := range cfg.Events {
			if ev.At == i {
				if err := f.apply(ev); err != nil {
					return rep, err
				}
			}
		}

		body := fmt.Sprintf(`{"group":"G-%d","seed":%d}`, 1+rng.Intn(3), 1000+i)
		if len(bodies) > 0 && rng.Float64() < cfg.DupRate {
			body = bodies[rng.Intn(len(bodies))]
		}
		bodies = append(bodies, body)

		deadlineMs := 0
		if cfg.DeadlineEvery > 0 && i%cfg.DeadlineEvery == cfg.DeadlineEvery-1 {
			deadlineMs = cfg.DeadlineMs
		}
		rep.Submitted++
		f.submit(rep, body, deadlineMs)

		// Interleave polls so hedged reads run under the same faults.
		if i%3 == 2 && len(rep.Accepted) > 0 {
			f.poll(rep.Accepted[rng.Intn(len(rep.Accepted))].ID)
		}
	}

	// Late events (At >= Jobs) fire after the last submission.
	for _, ev := range cfg.Events {
		if ev.At >= cfg.Jobs {
			if err := f.apply(ev); err != nil {
				return rep, err
			}
		}
	}

	// Heal everything and bring dead nodes back so the drain barrier and
	// the lost-job check see the whole fleet. Quiesce before the
	// convergence wait: a restarted node replays and drains regardless of
	// ring membership, and a store poisoned read-only answers /healthz
	// with 503 forever — it can never rejoin, so the router converges to
	// the writable node count only.
	for _, n := range f.nodes {
		f.Heal(n.Index)
		if !n.Alive() {
			if err := f.Restart(n.Index); err != nil {
				return rep, err
			}
		}
	}
	if err := f.AwaitQuiesce(30 * time.Second); err != nil {
		return rep, err
	}
	writable := 0
	for _, n := range f.nodes {
		if srv := n.Server(); srv != nil {
			if p := srv.Persist(); p == nil || !p.Store().ReadOnly() {
				writable++
			}
		}
	}
	if err := f.WaitConverged(writable, 5*time.Second); err != nil {
		return rep, err
	}
	f.sweep(rep)
	return rep, nil
}

func (f *Fleet) apply(ev Event) error {
	switch ev.Kind {
	case EvKill:
		f.Kill(ev.Node)
	case EvRestart:
		return f.Restart(ev.Node)
	case EvPartition:
		f.Partition(ev.Node, true)
	case EvHeal:
		f.Heal(ev.Node)
	case EvLatency:
		f.SetLatency(ev.Node, ev.Latency)
	case EvTruncate:
		f.TruncateNext(ev.Node, ev.Count)
	case EvDiskFault:
		f.nodes[ev.Node].SetDiskFault(FailAppends(ev.Count))
	default:
		return fmt.Errorf("chaos: unknown event kind %q", ev.Kind)
	}
	return nil
}

// submit POSTs one job through the router and classifies the answer.
func (f *Fleet) submit(rep *Report, body string, deadlineMs int) {
	req := httptest.NewRequest(http.MethodPost, "http://router/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if deadlineMs > 0 {
		req.Header.Set(cluster.DeadlineHeader, strconv.Itoa(deadlineMs))
	}
	rec := httptest.NewRecorder()
	f.Router.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		rep.Rejected[rec.Code]++
		return
	}
	var ack struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || ack.ID == "" {
		rep.AcceptedUnknown++
		return
	}
	rep.Accepted = append(rep.Accepted, Accepted{
		ID: ack.ID, Cached: ack.Cached, DeadlineMs: deadlineMs,
	})
}

// poll GETs one job through the router — traffic for the hedged read
// path; the answer itself is checked by the invariants, not here.
func (f *Fleet) poll(id string) {
	rec := httptest.NewRecorder()
	f.Router.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "http://router/jobs/"+id, nil))
}

// sweep captures each node's live end state.
func (f *Fleet) sweep(rep *Report) {
	for _, n := range f.nodes {
		sw := NodeSweep{Node: n.Index, Alive: n.Alive(), Restarts: n.Restarts()}
		if srv := n.Server(); srv != nil {
			counts := srv.Jobs().Counts()
			sw.Queued = counts[jobs.StatusQueued]
			sw.Running = counts[jobs.StatusRunning]
			sw.JobStatus = make(map[string]string)
			for _, snap := range srv.Jobs().List() {
				sw.JobStatus[snap.ID] = string(snap.Status)
			}
			if p := srv.Persist(); p != nil {
				sw.ReadOnly = p.Store().ReadOnly()
			}
			sw.StatsCorrupt = scrapeStatsCorrupt(srv)
			metrics := scrape(srv, "/metrics")
			sw.MetricCorrupt = parseMetric(metrics, "artisan_store_corrupt_total")
			sw.MetricRO = parseMetric(metrics, "artisan_store_readonly")
		}
		rep.Sweeps = append(rep.Sweeps, sw)
	}
}

// scrape GETs a path directly on one node (not through the router).
func scrape(h http.Handler, path string) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "http://node"+path, nil))
	return rec.Body.String()
}

func scrapeStatsCorrupt(h http.Handler) int {
	var stats struct {
		Store struct {
			Journal struct {
				Corrupt int `json:"corrupt"`
			} `json:"journal"`
		} `json:"store"`
	}
	if err := json.Unmarshal([]byte(scrape(h, "/stats")), &stats); err != nil {
		return -1
	}
	return stats.Store.Journal.Corrupt
}

// parseMetric pulls one sample value out of Prometheus text exposition;
// NaN-free registry means 0 is a safe "absent" sentinel — callers that
// need to distinguish check the name is present first.
func parseMetric(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := strings.TrimPrefix(line, name)
		if len(rest) == 0 || (rest[0] != ' ' && rest[0] != '\t') {
			continue // a longer metric name sharing the prefix
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err == nil {
			return v
		}
	}
	return 0
}
