// Package cluster turns a fleet of immserve replicas into one logical
// seed-serving system: each replica owns a shard of the RRR samples (a
// contiguous id range of one imm.Draw; a replica's BuildShard codes only
// its own and cuts its index from the draw's) and a thin router runs the selection engine
// (imm.Greedy) over them — fleetCoverage, its coverage backend, fans each
// start/purge/end out over the shard API and merges the shards' counts
// and decrements.
//
// The shard API has one binary wire codec spoken over two interchangeable
// transports: HTTP (HTTPConn against a shard-mode immserve) and an
// mpi.Comm (CommConn/ServeComm, which plugs into mpi.WithFaults so replica
// death and failover are testable deterministically). Shards bootstrap
// from a v3 sketch snapshot wrapped in a shard header that carries the
// shard's first sample id — written locally, or streamed from a peer via
// GET /v1/snapshot.
//
// Because sampling runs in imm.PerSample mode, sample i is a pure function
// of (seed, i) and the shards' ranges tile the draw, so the union of the
// shards' samples is the single-process sample set and a fleet answers
// byte-identically to one immserve holding the whole sketch. A replica
// that dies mid-query surfaces as a typed mpi.RankFailedError within the
// net timeout; the router replays the chosen seeds on the survivors and
// serves a degraded result naming the failed shards. RouterServer is the
// fleet backend of the same front.Front immserve runs (internal/front).
// DESIGN.md §16, §18 and §20 are the normative spec.
package cluster
