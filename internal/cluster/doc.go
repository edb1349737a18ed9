// Package cluster turns a fleet of immserve replicas into one logical
// seed-serving system: each replica owns a shard of the theta RRR samples
// (a per-rank slice, exactly what one rank of internal/dist would hold)
// and a thin router runs the selection engine (imm.Greedy) over them —
// fleetCoverage, its coverage backend, fans each start/purge/end out over
// the shard API and merges the shards' counts and decrements.
//
// The shard API has four operations (info, start-session, purge, end) with
// one binary wire codec spoken over two interchangeable transports: HTTP
// (HTTPConn against a shard-mode immserve, the production path) and an
// mpi.Comm (CommConn/ServeComm, which plugs straight into mpi.WithFaults
// so replica death and failover are testable deterministically). Shards
// bootstrap from a v3 snapshot wrapped in a small shard header — written
// locally, or streamed from a peer via GET /v1/snapshot.
//
// Because sampling runs in imm.PerSample mode, the union of the shards'
// samples is the single-process sample set, and Router.SelectQuery runs
// the very loop imm.SelectQuerySketch runs, over merged counts — so a
// fleet answers POST /v1/seeds byte-identically to one immserve holding
// the whole sketch. A replica that dies mid-query surfaces as a typed
// mpi.RankFailedError within the configured net timeout; the backend
// drops it and reports a restart, the engine replays the seeds already
// chosen on the survivors, and the router serves a degraded result naming
// the failed shards. DESIGN.md §16 and §18 are the normative spec.
package cluster
