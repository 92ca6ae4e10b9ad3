// Package cluster is the distributed serving tier of the Artisan
// service: the pieces that turn one jobs.Manager process into a small
// fleet.
//
//   - Ring: a consistent-hash ring with virtual nodes. The router shards
//     design/simulate work across worker nodes by canonical request key,
//     so the per-node result caches and singleflight coalescing maps
//     partition cleanly — duplicate work lands on one node and runs once
//     fleet-wide.
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
//     to the owning shard by key, with health-checked membership, breaker
//   - backoff retry onto the next ring candidate when a node is down,
//     and X-Request-ID pass-through.
//
// Everything here is stdlib-only, like the rest of the repo.
package cluster
