package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"artisan/internal/core"
	"artisan/internal/resilience"
	"artisan/internal/telemetry"
)

// DeadlineHeader carries a request's end-to-end deadline budget in
// integer milliseconds. The router mints it (DefaultDeadline) or
// accepts it from the client, then re-stamps the *remaining* budget on
// every hop and failover attempt — so a job accepted by the third
// candidate node after two slow failures inherits only what is left of
// the client's patience, not a fresh allowance.
const DeadlineHeader = "X-Deadline-Ms"

// RouterConfig tunes a Router.
type RouterConfig struct {
	// Nodes are the worker base URLs (e.g. http://10.0.0.1:8080). At
	// least one is required.
	Nodes []string
	// VNodes is the hash-ring virtual-node count; default DefaultVNodes.
	VNodes int
	// HealthInterval is the node health-check period; default 2s.
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe; default 1s.
	HealthTimeout time.Duration
	// Retry is the per-request retry policy across ring candidates; the
	// zero value takes 3 attempts with a 25ms base backoff.
	Retry resilience.RetryPolicy
	// BreakerThreshold / BreakerCooldown tune the per-node circuit
	// breaker; defaults 3 failures / 5s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Client is the forwarding HTTP client; default has no global timeout
	// (batch streams are long-lived) — per-request contexts bound it.
	Client *http.Client
	// Registry, when non-nil, receives the router's metrics.
	Registry *telemetry.Registry
	// MaxBody bounds a proxied request body; default 1 MiB.
	MaxBody int64
	// HedgeDelay is how long a hedgeable read (GET /jobs/{id}, the
	// per-node /stats fetch) waits before a second request is launched
	// against the rest of the fleet. Default 25ms; negative disables
	// hedging.
	HedgeDelay time.Duration
	// DefaultDeadline, when positive, mints an X-Deadline-Ms budget for
	// requests that arrive without one. 0 leaves unbudgeted requests
	// unbounded (the pre-deadline behaviour).
	DefaultDeadline time.Duration
	// Counters, when non-nil, receives the router's resilience events
	// (hedges). Default: a private set, still surfaced on /metrics.
	Counters *resilience.Counters
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.VNodes < 1 {
		c.VNodes = DefaultVNodes
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.Retry.MaxAttempts < 1 {
		c.Retry.MaxAttempts = 3
	}
	if c.Retry.BaseDelay == 0 {
		c.Retry.BaseDelay = 25 * time.Millisecond
	}
	if c.Retry.Jitter <= 0 {
		// Failover backoff is jittered by default so a fleet-wide blip does
		// not re-arrive at the survivors as a synchronized retry storm.
		c.Retry.Jitter = 0.5
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 25 * time.Millisecond
	}
	if c.Counters == nil {
		c.Counters = &resilience.Counters{}
	}
	if c.BreakerThreshold < 1 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	return c
}

// routerNode is the router's view of one worker.
type routerNode struct {
	url     string
	breaker *resilience.Breaker

	mu      sync.Mutex
	healthy bool
	nodeID  string // from the worker's /healthz "node" field
}

func (n *routerNode) setHealth(ok bool, id string) (changed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	changed = n.healthy != ok
	n.healthy = ok
	if id != "" {
		n.nodeID = id
	}
	return changed
}

func (n *routerNode) isHealthy() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.healthy
}

func (n *routerNode) id() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nodeID
}

// Router is the thin stateless front of the fleet. It owns no serving
// state beyond the health-checked membership view — restarting it loses
// nothing — and shards work across nodes by request body: a design body
// by the node's own design key (placeKey), so equivalent design bodies
// share an owner and its result cache.
type Router struct {
	cfg   RouterConfig
	ring  *Ring
	nodes map[string]*routerNode // url → node
	mux   *http.ServeMux

	stop   chan struct{}
	stopWG sync.WaitGroup

	// reqSeq varies the retry jitter seed per request: a shared seed
	// would hand every concurrent request the same backoff schedule,
	// re-synchronizing the very storm the jitter exists to break up.
	reqSeq atomic.Int64

	reg             *telemetry.Registry
	proxied         *telemetry.CounterVec // node, outcome
	retries         *telemetry.Counter
	rejected        *telemetry.Counter
	deadlineExpired *telemetry.Counter
}

// NewRouter builds the router and starts its health-check loop. All
// nodes start healthy (optimistic) and are removed from the ring on the
// first failed probe.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one node")
	}
	rt := &Router{
		cfg:   cfg,
		ring:  NewRing(cfg.VNodes),
		nodes: make(map[string]*routerNode),
		mux:   http.NewServeMux(),
		stop:  make(chan struct{}),
	}
	for _, raw := range cfg.Nodes {
		u := strings.TrimRight(raw, "/")
		if u == "" {
			return nil, fmt.Errorf("cluster: empty node URL")
		}
		if _, dup := rt.nodes[u]; dup {
			return nil, fmt.Errorf("cluster: duplicate node URL %s", u)
		}
		rt.nodes[u] = &routerNode{
			url:     u,
			healthy: true,
			breaker: resilience.NewBreaker(resilience.BreakerConfig{
				Threshold: cfg.BreakerThreshold, Cooldown: cfg.BreakerCooldown,
			}),
		}
		rt.ring.Add(u)
	}
	rt.initMetrics(cfg.Registry)
	rt.routes()
	rt.stopWG.Add(1)
	go rt.healthLoop()
	return rt, nil
}

func (rt *Router) initMetrics(reg *telemetry.Registry) {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	rt.reg = reg
	rt.proxied = reg.CounterVec("artisan_router_proxied_total",
		"Requests proxied to worker nodes, by node URL and outcome (ok|error).",
		"node", "outcome")
	rt.retries = reg.Counter("artisan_router_retries_total",
		"Proxy attempts retried onto the next ring candidate after a node failure.")
	rt.rejected = reg.Counter("artisan_router_rejected_total",
		"Requests rejected because no healthy node could serve them.")
	rt.deadlineExpired = reg.Counter("artisan_router_deadline_exhausted_total",
		"Requests whose end-to-end deadline budget ran out before any node answered.")
	reg.CounterFunc("artisan_router_hedges_total",
		"Hedged second reads launched after the primary exceeded the hedge delay.",
		func() float64 { return float64(rt.cfg.Counters.Hedges.Load()) })
	reg.GaugeFunc("artisan_router_nodes_healthy",
		"Worker nodes currently in the ring.",
		func() float64 { return float64(rt.ring.Size()) })
	reg.GaugeFunc("artisan_router_nodes_total",
		"Worker nodes configured.",
		func() float64 { return float64(len(rt.nodes)) })
}

func (rt *Router) routes() {
	shard := http.HandlerFunc(rt.handleSharded)
	for _, route := range []string{
		"POST /design", "POST /design/batch",
		"POST /simulate", "POST /simulate/batch",
		"POST /jobs",
	} {
		rt.mux.Handle(route, shard)
	}
	rt.mux.HandleFunc("GET /jobs", rt.handleJobsFanout)
	rt.mux.HandleFunc("GET /jobs/{id}", rt.handleJobByID)
	rt.mux.HandleFunc("DELETE /jobs/{id}", rt.handleJobByID)
	rt.mux.HandleFunc("GET /stats", rt.handleStatsFanout)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.Handle("GET /metrics", rt.reg.Handler())
	for _, route := range []string{"GET /groups", "GET /architectures", "GET /traces"} {
		rt.mux.HandleFunc(route, rt.handleAnyNode)
	}
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Registry exposes the router's metrics registry.
func (rt *Router) Registry() *telemetry.Registry { return rt.reg }

// Close stops the health-check loop.
func (rt *Router) Close() {
	close(rt.stop)
	rt.stopWG.Wait()
}

// healthLoop probes every node each HealthInterval and keeps the ring's
// membership in sync. A node answering /healthz with any non-200 —
// including the 503 a draining node reports — leaves the ring, so the
// router stops sending it work before its queue closes.
func (rt *Router) healthLoop() {
	defer rt.stopWG.Done()
	rt.probeAll() // establish real state before the first tick
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, n := range rt.nodes {
		wg.Add(1)
		go func(n *routerNode) {
			defer wg.Done()
			ok, id := rt.probe(n)
			if n.setHealth(ok, id) {
				if ok {
					rt.ring.Add(n.url)
				} else {
					rt.ring.Remove(n.url)
				}
			}
		}(n)
	}
	wg.Wait()
}

// probe checks one node's /healthz, returning health and the node's
// self-reported id (used to route /jobs/{id} by id prefix).
func (rt *Router) probe(n *routerNode) (ok bool, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/healthz", nil)
	if err != nil {
		return false, ""
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return false, ""
	}
	defer resp.Body.Close()
	var body struct {
		Node string `json:"node"`
	}
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body)
	return resp.StatusCode == http.StatusOK, body.Node
}

// placeKey is the ring key of a sharded request body. A design body is
// placed by the key its node caches it under (resolved with the default
// sizing backend), so equivalent bodies share an owner and its cache.
// Any other body, and a design body every node rejects with the same
// 400, is placed by its raw bytes.
func placeKey(path string, body []byte) string {
	if path == "/design" || path == "/jobs" {
		var req core.Request
		if json.Unmarshal(body, &req) == nil {
			if sp, err := req.Resolve(""); err == nil {
				return req.Key(sp)
			}
		}
	}
	return string(body)
}

// errNoHealthyNode means every candidate was down or rejected.
var errNoHealthyNode = errors.New("cluster: no healthy node")

// errBudgetExhausted means the deadline budget ran out with failover
// attempts still available — spending them would outlive the client.
var errBudgetExhausted = errors.New("cluster: deadline budget exhausted")

// ParseDeadlineMs parses an X-Deadline-Ms value; 0 means absent or
// malformed (malformed budgets are ignored, not errors — neither the
// router nor a node may 400 traffic over an advisory header).
func ParseDeadlineMs(v string) time.Duration {
	ms, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// budgetCtx derives the request's end-to-end budget: an explicit
// X-Deadline-Ms wins, else DefaultDeadline is minted. The zero deadline
// means unbudgeted.
func (rt *Router) budgetCtx(r *http.Request) (context.Context, time.Time, context.CancelFunc) {
	budget := ParseDeadlineMs(r.Header.Get(DeadlineHeader))
	if budget <= 0 {
		budget = rt.cfg.DefaultDeadline
	}
	if budget <= 0 {
		return r.Context(), time.Time{}, func() {}
	}
	dl := time.Now().Add(budget)
	ctx, cancel := context.WithDeadline(r.Context(), dl)
	return ctx, dl, cancel
}

// handleSharded proxies a body-keyed POST to the owning node, failing
// over clockwise around the ring (with the retry policy's backoff and
// each node's breaker) while nodes are down.
func (rt *Router) handleSharded(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxBody+1))
	if err != nil {
		writeRouterErr(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	if int64(len(body)) > rt.cfg.MaxBody {
		writeRouterErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", rt.cfg.MaxBody))
		return
	}
	candidates := rt.ring.Owners(placeKey(r.URL.Path, body), len(rt.nodes))
	rt.forward(w, r, candidates, body)
}

// forward tries candidates in preference order. Within one retry
// attempt every candidate is swept — a transport failure, gateway-class
// status, or open breaker advances to the next node immediately — and
// the retry policy's backoff separates full sweeps, so a transient
// fleet-wide blip gets a second chance. A response the node produced
// (including 4xx/5xx application errors) ends the loop: those belong to
// the client, not to failover.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, candidates []string, body []byte) {
	if len(candidates) == 0 {
		rt.rejected.Inc()
		writeRouterErr(w, http.StatusServiceUnavailable, errNoHealthyNode)
		return
	}
	ctx, deadline, cancel := rt.budgetCtx(r)
	defer cancel()
	pol := rt.cfg.Retry
	if pol.Jitter > 0 {
		pol.Seed += rt.reqSeq.Add(1)
	}
	sent := false
	err := pol.Do(ctx, "router.forward", func(ctx context.Context) error {
		lastErr := errNoHealthyNode
		for i, url := range candidates {
			if i > 0 {
				rt.retries.Inc()
			}
			n := rt.nodes[url]
			berr := n.breaker.Do(ctx, "proxy "+url, func(ctx context.Context) error {
				resp, ferr := rt.send(ctx, n, r, body, deadline)
				if ferr != nil {
					rt.proxied.With(n.url, "error").Inc()
					return ferr
				}
				defer resp.Body.Close()
				rt.proxied.With(n.url, "ok").Inc()
				sent = true
				copyResponse(w, resp)
				return nil
			})
			if berr == nil {
				return nil
			}
			if ctx.Err() != nil || errors.Is(berr, errBudgetExhausted) {
				return berr // client gone or budget spent: stop failing over
			}
			lastErr = berr
		}
		return lastErr
	})
	if err != nil && !sent {
		rt.rejected.Inc()
		status := http.StatusBadGateway
		if errors.Is(err, errBudgetExhausted) || errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(ctx.Err(), context.DeadlineExceeded) {
			rt.deadlineExpired.Inc()
			status = http.StatusGatewayTimeout
		}
		writeRouterErr(w, status, err)
	}
}

// send issues one proxied request. Gateway-class statuses are converted
// to errors so the retry loop fails over; everything else is a valid
// upstream answer. A non-zero deadline re-stamps the remaining budget
// onto the hop as X-Deadline-Ms; a budget already spent fails the
// attempt permanently instead of starting work the client gave up on.
func (rt *Router) send(ctx context.Context, n *routerNode, r *http.Request, body []byte, deadline time.Time) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, n.url+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	copyProxyHeaders(req.Header, r.Header)
	if req.Header.Get("X-Request-ID") == "" {
		req.Header.Set("X-Request-ID", telemetry.NewRequestID())
	}
	if !deadline.IsZero() {
		rem := time.Until(deadline).Milliseconds()
		if rem < 1 {
			return nil, resilience.Permanent(fmt.Errorf("%s: %w", n.url, errBudgetExhausted))
		}
		req.Header.Set(DeadlineHeader, strconv.FormatInt(rem, 10))
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	// 502/503/504 from a worker mean "down or draining" — fail over. The
	// one exception is a 503 that carries Retry-After: that is the
	// admission layer shedding load deliberately, and must reach the
	// client untouched rather than hammer the next node.
	if resp.StatusCode >= http.StatusBadGateway && resp.Header.Get("Retry-After") == "" {
		resp.Body.Close()
		return nil, fmt.Errorf("%s: upstream status %d", n.url, resp.StatusCode)
	}
	return resp, nil
}

// copyProxyHeaders forwards end-to-end headers (correlation id, tenant,
// priority, content negotiation) without hop-by-hop ones.
func copyProxyHeaders(dst, src http.Header) {
	for _, h := range []string{
		"Content-Type", "Accept", "X-Request-ID", "X-Tenant", "X-Priority",
	} {
		if v := src.Get(h); v != "" {
			dst.Set(h, v)
		}
	}
}

// copyBufs recycles copyResponse's chunk buffers across proxied
// responses; a fresh one per response was the router's largest
// allocation site.
var copyBufs = sync.Pool{New: func() any {
	buf := make([]byte, 32*1024)
	return &buf
}}

// copyResponse streams an upstream response to the client, flushing per
// write so NDJSON batch streams pass through unbuffered.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	buf := *bp
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

func writeRouterErr(w http.ResponseWriter, status int, err error) {
	writeRouterJSON(w, status, map[string]string{"error": err.Error()})
}

// healthyNodes returns the healthy node set in stable (URL-sorted)
// order.
func (rt *Router) healthyNodes() []*routerNode {
	urls := make([]string, 0, len(rt.nodes))
	for u, n := range rt.nodes {
		if n.isHealthy() {
			urls = append(urls, u)
		}
	}
	sort.Strings(urls)
	out := make([]*routerNode, len(urls))
	for i, u := range urls {
		out[i] = rt.nodes[u]
	}
	return out
}

// handleAnyNode proxies a read-only GET to the first healthy node (they
// all serve identical static knowledge).
func (rt *Router) handleAnyNode(w http.ResponseWriter, r *http.Request) {
	healthy := rt.healthyNodes()
	candidates := make([]string, len(healthy))
	for i, n := range healthy {
		candidates[i] = n.url
	}
	rt.forward(w, r, candidates, nil)
}

// captured is a fully buffered upstream response — needed where two
// in-flight copies of a request race (hedged reads) and only the winner
// may touch the ResponseWriter.
type captured struct {
	status int
	header http.Header
	body   []byte
}

func writeCaptured(w http.ResponseWriter, c *captured) {
	for k, vs := range c.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(c.status)
	_, _ = w.Write(c.body)
}

// capture proxies one request to n and buffers the full response.
func (rt *Router) capture(ctx context.Context, n *routerNode, r *http.Request) (*captured, error) {
	resp, err := rt.send(ctx, n, r, nil, time.Time{})
	if err != nil {
		rt.proxied.With(n.url, "error").Inc()
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBody))
	if err != nil {
		rt.proxied.With(n.url, "error").Inc()
		return nil, err
	}
	rt.proxied.With(n.url, "ok").Inc()
	return &captured{status: resp.StatusCode, header: resp.Header.Clone(), body: body}, nil
}

// sweepJobRead asks each healthy node but skip in turn, returning the
// first answer that is not a 404 — a 404 from a non-owner only means
// "not mine".
func (rt *Router) sweepJobRead(ctx context.Context, r *http.Request, nodes []*routerNode, skip *routerNode) *captured {
	for _, n := range nodes {
		if n == skip {
			continue
		}
		nctx, cancel := context.WithTimeout(ctx, rt.cfg.HealthTimeout)
		c, err := rt.capture(nctx, n, r)
		cancel()
		if err == nil && c.status != http.StatusNotFound {
			return c
		}
	}
	return nil
}

// handleJobByID routes a job poll/cancel to the node that owns the id:
// with -node-id set, worker job ids are "<node>-j-<n>" and the prefix
// names the owner; without a prefix match the request fans out until a
// node answers something other than 404. Polls (GET) of a known owner
// are hedged: when the owner sits on the request past HedgeDelay, a
// sweep of the rest of the fleet races it and the first answer wins.
func (rt *Router) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	healthy := rt.healthyNodes()
	if node, pre, ok := strings.Cut(id, "-j-"); ok && pre != "" {
		for _, n := range healthy {
			if n.id() == node {
				if r.Method == http.MethodGet && rt.cfg.HedgeDelay > 0 && len(healthy) > 1 {
					rt.hedgedJobRead(w, r, n, healthy)
				} else {
					rt.forward(w, r, []string{n.url}, nil)
				}
				return
			}
		}
	}
	// Unknown or unprefixed id: ask each healthy node in turn.
	if c := rt.sweepJobRead(r.Context(), r, healthy, nil); c != nil {
		writeCaptured(w, c)
		return
	}
	writeRouterErr(w, http.StatusNotFound, fmt.Errorf("no node owns job %s", id))
}

// hedgedJobRead races the owner against a sweep of the other nodes.
// The owner's answer — any status, including 404 — is authoritative;
// the hedge only helps when the owner is slow or unreachable, and a
// secondary 404 never pre-empts the owner (the sweep reports it as a
// miss, so Hedge keeps waiting on the primary).
func (rt *Router) hedgedJobRead(w http.ResponseWriter, r *http.Request, owner *routerNode, healthy []*routerNode) {
	primary := func(ctx context.Context) (*captured, error) {
		return rt.capture(ctx, owner, r)
	}
	secondary := func(ctx context.Context) (*captured, error) {
		if c := rt.sweepJobRead(ctx, r, healthy, owner); c != nil {
			return c, nil
		}
		return nil, fmt.Errorf("cluster: hedge sweep: no other node had the job")
	}
	c, err := resilience.Hedge(r.Context(), rt.cfg.HedgeDelay, rt.cfg.Counters, primary, secondary)
	if err != nil {
		writeRouterErr(w, http.StatusBadGateway, err)
		return
	}
	writeCaptured(w, c)
}

// errBadPayload marks a fan-out reply that is not JSON; /stats reports
// it as the node's error.
var errBadPayload = errors.New("bad stats payload")

// nodeReply is one node's answer to a fan-out GET: a JSON body or the
// error that stopped it.
type nodeReply struct {
	node *routerNode
	body json.RawMessage
	err  error
}

// fanout sends r to every node at once and returns their replies in URL
// order. Each fetch runs under HealthTimeout, reads at most MaxBody and
// must return JSON. With hedge set (and a positive HedgeDelay) a second
// identical fetch races a slow first one.
func (rt *Router) fanout(r *http.Request, nodes []*routerNode, hedge bool) []nodeReply {
	out := make([]nodeReply, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		out[i].node = n
		wg.Add(1)
		go func(rep *nodeReply) {
			defer wg.Done()
			fetch := func(ctx context.Context) (json.RawMessage, error) {
				ctx, cancel := context.WithTimeout(ctx, rt.cfg.HealthTimeout)
				defer cancel()
				resp, err := rt.send(ctx, rep.node, r, nil, time.Time{})
				if err != nil {
					return nil, err
				}
				defer resp.Body.Close()
				blob, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBody))
				if err != nil {
					return nil, err
				}
				if !json.Valid(blob) {
					return nil, errBadPayload
				}
				return blob, nil
			}
			if hedge && rt.cfg.HedgeDelay > 0 {
				rep.body, rep.err = resilience.Hedge(r.Context(), rt.cfg.HedgeDelay, rt.cfg.Counters, fetch, fetch)
			} else {
				rep.body, rep.err = fetch(r.Context())
			}
		}(&out[i])
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].node.url < out[j].node.url })
	return out
}

// handleJobsFanout merges GET /jobs from every healthy node, tagging
// each job with its node; a node that fails is left out.
func (rt *Router) handleJobsFanout(w http.ResponseWriter, r *http.Request) {
	type nodeJobs struct {
		Node string          `json:"node"`
		URL  string          `json:"url"`
		Body json.RawMessage `json:"jobs"`
	}
	var out []nodeJobs
	for _, rep := range rt.fanout(r, rt.healthyNodes(), false) {
		if rep.err == nil {
			out = append(out, nodeJobs{Node: rep.node.id(), URL: rep.node.url, Body: rep.body})
		}
	}
	writeRouterJSON(w, http.StatusOK, map[string]any{"nodes": out})
}

// handleStatsFanout merges GET /stats from every node (down nodes are
// reported with an error string). The per-node fetch is hedged: stats
// are node-local so no other node can answer for it, but a second
// identical probe papers over a dropped packet or a brownout pause on
// the first.
func (rt *Router) handleStatsFanout(w http.ResponseWriter, r *http.Request) {
	type nodeStats struct {
		Node    string          `json:"node,omitempty"`
		URL     string          `json:"url"`
		Healthy bool            `json:"healthy"`
		Stats   json.RawMessage `json:"stats,omitempty"`
		Error   string          `json:"error,omitempty"`
	}
	nodes := make([]*routerNode, 0, len(rt.nodes))
	for _, n := range rt.nodes {
		nodes = append(nodes, n)
	}
	var out []nodeStats
	for _, rep := range rt.fanout(r, nodes, true) {
		st := nodeStats{Node: rep.node.id(), URL: rep.node.url, Healthy: rep.node.isHealthy()}
		if rep.err == nil {
			st.Stats = rep.body
		} else {
			st.Error = rep.err.Error()
		}
		out = append(out, st)
	}
	writeRouterJSON(w, http.StatusOK, map[string]any{"nodes": out})
}

// handleHealth reports the router's own health: 200 while at least one
// node is in the ring, 503 otherwise (the router itself is stateless —
// its health is its fleet's).
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	type nodeHealth struct {
		Node    string `json:"node,omitempty"`
		URL     string `json:"url"`
		Healthy bool   `json:"healthy"`
	}
	var nodes []nodeHealth
	healthy := 0
	for _, n := range rt.nodes {
		h := n.isHealthy()
		if h {
			healthy++
		}
		nodes = append(nodes, nodeHealth{Node: n.id(), URL: n.url, Healthy: h})
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].URL < nodes[j].URL })
	status := http.StatusOK
	state := "ok"
	if healthy == 0 {
		status = http.StatusServiceUnavailable
		state = "no-healthy-nodes"
	}
	writeRouterJSON(w, status, map[string]any{
		"status": state, "healthy": healthy, "total": len(rt.nodes), "nodes": nodes,
	})
}

func writeRouterJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
