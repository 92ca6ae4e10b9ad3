// Command artisan-router is the stateless front of a multi-node Artisan
// fleet. It owns no serving state — restart it freely — and proxies the
// serving API to worker nodes (artisan-server processes) selected by
// consistent hashing over the request, so equivalent design requests
// share an owner and its result cache.
//
//	artisan-router -addr :8080 -nodes http://10.0.0.1:8081,http://10.0.0.2:8081
//
// Behaviour:
//
//   - POST /design and /jobs are sharded by the design key a node caches
//     the body under, /design/batch and /simulate[/batch] by their bytes,
//     failing over clockwise around the ring (with backoff and a per-node
//     circuit breaker) while nodes are down. A tuned body without
//     "backend" is keyed with the default backend, as on a node started
//     without -sizing-backend.
//   - GET/DELETE /jobs/{id} route by the node prefix of fleet-unique job
//     ids (workers started with -node-id); GET /jobs and GET /stats fan
//     out to every node and merge.
//   - GET /healthz reports the router's fleet view (503 when no node is
//     healthy); GET /metrics serves the router's own registry.
//   - Node membership follows each worker's /healthz: a draining node
//     answers 503 and leaves the ring before its queue closes.
//   - X-Request-ID, X-Tenant, and X-Priority pass through untouched (a
//     missing request id is generated at the edge).
//   - X-Deadline-Ms is an end-to-end budget: accepted from the client or
//     minted by -default-deadline, decremented across hops and failover
//     attempts, 504 when it runs out before any node answers.
//   - Slow GET /jobs/{id} polls are hedged against the rest of the fleet
//     after -hedge-delay; hedge launches count into
//     artisan_router_hedges_total.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"artisan/internal/cluster"
	"artisan/internal/resilience"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		nodes     = flag.String("nodes", "", "comma-separated worker base URLs (required)")
		vnodes    = flag.Int("vnodes", cluster.DefaultVNodes, "hash-ring virtual nodes per worker")
		healthInt = flag.Duration("health-interval", 2*time.Second, "node health-check period")
		retryMax  = flag.Int("retry-max", 3, "forwarding attempts across ring candidates")
		retryJit  = flag.Float64("retry-jitter", 0.5, "failover backoff jitter fraction (de-synchronizes retry storms)")
		breakThr  = flag.Int("breaker-threshold", 3, "consecutive failures that open a node's breaker")
		breakCool = flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker cooldown before probing a node again")
		hedgeDly  = flag.Duration("hedge-delay", 25*time.Millisecond, "delay before hedging a slow GET /jobs/{id} or /stats read (negative disables)")
		deadline  = flag.Duration("default-deadline", 0, "X-Deadline-Ms budget minted for requests without one (0 = unbounded)")
		drainTime = flag.Duration("drain-timeout", 10*time.Second, "shutdown drain budget")
	)
	flag.Parse()

	if *nodes == "" {
		log.Fatal("artisan-router: -nodes is required")
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes:          strings.Split(*nodes, ","),
		VNodes:         *vnodes,
		HealthInterval: *healthInt,
		Retry: resilience.RetryPolicy{
			MaxAttempts: *retryMax,
			BaseDelay:   25 * time.Millisecond,
			Jitter:      *retryJit,
		},
		BreakerThreshold: *breakThr,
		BreakerCooldown:  *breakCool,
		HedgeDelay:       *hedgeDly,
		DefaultDeadline:  *deadline,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	srv := &http.Server{
		Addr:        *addr,
		Handler:     rt,
		ReadTimeout: 10 * time.Second,
		// No write timeout: batch NDJSON streams are long-lived.
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("artisan-router listening on %s, fleet %s", *addr, *nodes)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutdown: draining connections (budget %s)", *drainTime)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTime)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
		os.Exit(1)
	}
	log.Printf("artisan-router stopped")
}
