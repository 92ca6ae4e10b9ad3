package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"artisan/internal/cluster"
	"artisan/internal/jobs"
	"artisan/internal/resilience"
	"artisan/internal/server"
)

// Config sizes a chaos run: the fleet shape, the seeded workload, and
// the fault script.
type Config struct {
	// Nodes is the fleet size; default 3.
	Nodes int
	// Workers / Queue size each node's pool; defaults 2 / 256.
	Workers int
	Queue   int
	// Seed drives the workload's rng and the router's retry jitter.
	Seed int64
	// Jobs is how many submissions the workload issues; default 40.
	Jobs int
	// DupRate is the probability a submission repeats an earlier body —
	// exercising the cache/coalesce path and result coherence.
	DupRate float64
	// DeadlineEvery, when positive, puts a DeadlineMs budget on every
	// Nth submission. DeadlineMs defaults to 3.
	DeadlineEvery int
	DeadlineMs    int
	// ModelLatency gives each design run a modeled duration, so kills
	// actually interrupt running jobs; default 3ms.
	ModelLatency time.Duration
	// HealthInterval is the router's probe period; default 5ms, so
	// membership converges quickly relative to the fault script.
	HealthInterval time.Duration
	// Dir is the fleet data root; each node journals under Dir/n<i>.
	// Required.
	Dir string
	// Events is the fault script, keyed to submission indices.
	Events []Event
}

func (c Config) withDefaults() Config {
	if c.Nodes < 1 {
		c.Nodes = 3
	}
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.Queue < 1 {
		c.Queue = 256
	}
	if c.Jobs < 1 {
		c.Jobs = 40
	}
	if c.DeadlineMs < 1 {
		c.DeadlineMs = 3
	}
	if c.ModelLatency <= 0 {
		c.ModelLatency = 3 * time.Millisecond
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 5 * time.Millisecond
	}
	return c
}

// Node is one fleet member: a server.Server over its own data dir,
// reachable at a stable virtual URL.
type Node struct {
	Index int
	Host  string // virtual hostname, e.g. "node0"
	URL   string // "http://node0"
	Dir   string // data dir, stable across restarts

	mu       sync.Mutex
	srv      *server.Server
	alive    bool
	restarts int
	faultFn  func() error
}

// Server returns the node's current server instance (nil while killed).
func (n *Node) Server() *server.Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv
}

// Alive reports whether the node is currently up.
func (n *Node) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// Restarts counts completed kill/restart cycles.
func (n *Node) Restarts() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.restarts
}

// SetDiskFault installs fn as the node's journal write fault (nil
// clears). It survives restarts — the hook is re-wired into each new
// server instance.
func (n *Node) SetDiskFault(fn func() error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faultFn = fn
}

// writeFault is the indirection handed to server.Options: the armed
// fault can change (or clear) while the store object stays the same.
func (n *Node) writeFault() error {
	n.mu.Lock()
	fn := n.faultFn
	n.mu.Unlock()
	if fn != nil {
		return fn()
	}
	return nil
}

// FailAppends returns a disk fault that fails the next n journal
// appends (n <= 0: every append, a dead disk).
func FailAppends(n int) func() error {
	var left atomic.Int64
	left.Store(int64(n))
	return func() error {
		if n <= 0 {
			return fmt.Errorf("chaos: injected disk fault")
		}
		if left.Add(-1) >= 0 {
			return fmt.Errorf("chaos: injected disk fault")
		}
		return nil
	}
}

// Fleet is the assembled system under test: N nodes, one router, one
// virtual network carrying every hop.
type Fleet struct {
	cfg    Config
	VNet   *VNet
	Router *cluster.Router
	nodes  []*Node
}

// NewFleet builds and starts the fleet, waiting until the router has
// admitted every node to the ring.
func NewFleet(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: Config.Dir is required")
	}
	f := &Fleet{cfg: cfg, VNet: NewVNet()}
	urls := make([]string, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			Index: i,
			Host:  fmt.Sprintf("node%d", i),
			URL:   fmt.Sprintf("http://node%d", i),
			Dir:   filepath.Join(cfg.Dir, fmt.Sprintf("n%d", i)),
		}
		f.nodes = append(f.nodes, n)
		urls[i] = n.URL
		if err := f.start(n); err != nil {
			return nil, err
		}
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes:          urls,
		VNodes:         32,
		HealthInterval: cfg.HealthInterval,
		HealthTimeout:  250 * time.Millisecond,
		Retry: resilience.RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   time.Millisecond,
			Jitter:      0.5,
			Seed:        cfg.Seed,
		},
		BreakerThreshold: 4,
		BreakerCooldown:  50 * time.Millisecond,
		HedgeDelay:       2 * time.Millisecond,
		Client:           &http.Client{Transport: f.VNet},
	})
	if err != nil {
		f.Stop()
		return nil, err
	}
	f.Router = rt
	if err := f.WaitConverged(cfg.Nodes, 5*time.Second); err != nil {
		f.Stop()
		return nil, err
	}
	return f, nil
}

// Nodes returns the fleet members.
func (f *Fleet) Nodes() []*Node { return f.nodes }

// start boots (or reboots) a node over its existing data dir and
// connects it to the virtual network.
func (f *Fleet) start(n *Node) error {
	svc, err := server.NewServer(server.Options{
		Workers:         f.cfg.Workers,
		Queue:           f.cfg.Queue,
		NodeID:          fmt.Sprintf("n%d", n.Index),
		DataDir:         n.Dir,
		ModelLatency:    f.cfg.ModelLatency,
		StoreWriteFault: n.writeFault,
	})
	if err != nil {
		return fmt.Errorf("chaos: start node %d: %w", n.Index, err)
	}
	n.mu.Lock()
	n.srv = svc
	n.alive = true
	n.mu.Unlock()
	f.VNet.Register(n.Host, svc)
	return nil
}

// Kill crash-stops a node the way SIGKILL would land on the journal:
// the virtual link drops, the store closes *before* the pool is torn
// down — so terminal records from the dying workers vanish instead of
// being journaled — and the pool is then abandoned with an already-
// expired context.
func (f *Fleet) Kill(i int) {
	n := f.nodes[i]
	f.VNet.Unregister(n.Host)
	n.mu.Lock()
	srv := n.srv
	n.srv = nil
	n.alive = false
	n.mu.Unlock()
	if srv == nil {
		return
	}
	if p := srv.Persist(); p != nil {
		_ = p.Store().Close()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = srv.Shutdown(ctx)
}

// Restart reboots a killed node over the same data dir; the journal
// replay re-executes whatever the kill interrupted.
func (f *Fleet) Restart(i int) error {
	n := f.nodes[i]
	if err := f.start(n); err != nil {
		return err
	}
	n.mu.Lock()
	n.restarts++
	n.mu.Unlock()
	return nil
}

// Partition cuts (or heals, on=false) the link to node i without
// touching its latency or truncation state.
func (f *Fleet) Partition(i int, on bool) {
	f.VNet.UpdateRule(f.nodes[i].Host, func(r *FaultRule) { r.Partitioned = on })
}

// SetLatency installs a fixed brownout delay on node i's link.
func (f *Fleet) SetLatency(i int, d time.Duration) {
	f.VNet.UpdateRule(f.nodes[i].Host, func(r *FaultRule) { r.Latency = d })
}

// TruncateNext arms truncation of node i's next count response bodies.
func (f *Fleet) TruncateNext(i, count int) {
	f.VNet.UpdateRule(f.nodes[i].Host, func(r *FaultRule) { r.TruncateNext += count })
}

// Heal clears every network fault on node i.
func (f *Fleet) Heal(i int) { f.VNet.Heal(f.nodes[i].Host) }

// WaitConverged polls the router's /healthz until exactly want nodes
// are healthy.
func (f *Fleet) WaitConverged(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		rec := httptest.NewRecorder()
		f.Router.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "http://router/healthz", nil))
		var body struct {
			Healthy int `json:"healthy"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err == nil && body.Healthy == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: fleet did not converge to %d healthy nodes in %s", want, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// AwaitQuiesce blocks until every live node has drained: no queued or
// running jobs, and — unless its store is poisoned read-only, which
// can never journal again — no journaled job left non-terminal.
func (f *Fleet) AwaitQuiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		settled := true
		for _, n := range f.nodes {
			srv := n.Server()
			if srv == nil {
				continue
			}
			counts := srv.Jobs().Counts()
			if counts[jobs.StatusQueued] > 0 || counts[jobs.StatusRunning] > 0 {
				settled = false
				break
			}
			if p := srv.Persist(); p != nil && !p.Store().ReadOnly() {
				rec, err := cluster.ReadJobs(n.Dir)
				if err != nil {
					return err
				}
				if len(rec.Pending) > 0 {
					settled = false
					break
				}
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: fleet did not quiesce in %s", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Stop shuts the fleet down gracefully: router first (no new probes),
// then each live node with a real drain budget.
func (f *Fleet) Stop() {
	if f.Router != nil {
		f.Router.Close()
	}
	for _, n := range f.nodes {
		n.mu.Lock()
		srv := n.srv
		n.srv = nil
		n.alive = false
		n.mu.Unlock()
		if srv == nil {
			continue
		}
		f.VNet.Unregister(n.Host)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = srv.Shutdown(ctx)
		cancel()
	}
}
