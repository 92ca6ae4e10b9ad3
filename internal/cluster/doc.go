// Package cluster is the distributed serving tier of the Artisan
// service: the pieces that turn one jobs.Manager process into a small
// fleet.
//
//   - Ring: a consistent-hash ring with virtual nodes. The router shards
//     work across worker nodes by it: a design body by the key its node
//     caches it under, so equivalent designs share an owner and its
//     cache; any other body by its bytes.
//   - Store / PersistentManager: an append-only journal plus snapshot
//     under a data dir, the only durable job table. Job submissions and
//     state transitions are logged; on restart OpenStore folds the
//     journal once and Replay consumes the recovered jobs — completed
//     results re-warm the result cache (exactly-once visibility) and
//     interrupted jobs are re-executed (at-least-once execution).
//   - Admission / PQueue: per-tenant token-bucket admission control and a
//     small priority queue in front of the worker pool, so overload sheds
//     the noisiest tenant with 429 + Retry-After instead of crashing the
//     node or starving everyone equally.
//   - Router: a thin stateless HTTP router that proxies the serving API
//     to the owning shard by key. It keeps membership by health checks,
//     retries onto the next ring candidate with backoff and a per-node
//     breaker when a node is down, and passes X-Request-ID through.
//   - ReadBody / WriteJSON / WriteError: the one POST body reader (at
//     most MaxBodyBytes, 413 over it) and the one JSON reply and
//     {"error":…} body, shared by the router and every node.
//
// Everything here is stdlib-only, like the rest of the repo.
package cluster
