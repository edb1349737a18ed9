// Package server is the resident sketch-serving layer (immserve): a
// long-running HTTP service that answers seed-set queries from a
// precomputed RRR sketch instead of re-running the paper's batch pipeline
// per request.
//
// The cost structure that justifies it: sampling theta RRR sets is the
// expensive phase (minutes on the large SNAP analogs), while greedy
// selection over a prebuilt inverted incidence index is ~100ms even at k
// in the hundreds. A sketch sized for a configured kMax and epsilon
// therefore turns every query for k <= kMax into a sub-second indexed
// selection. HBMax (Chen et al.) and Wang et al.'s space-efficient
// parallel IM make the same observation — the sketch, not selection,
// dominates memory and time.
//
// The moving parts:
//
//   - Sketch: an immutable, query-ready unit — a byte-coded
//     CodedCollection of theta samples (DESIGN.md §13), its CSR inverted
//     incidence index, and the identifying key (graph digest, model,
//     epsilon, kMax, seed). Every query shape runs imm.Greedy over
//     copy-on-read state taken from a pool for the length of the query,
//     so concurrent queries never mutate the sketch. On a sparse sketch
//     (imm.PreferRecount) the trajectory and every query without an
//     audience run on imm.IndexCoverage, which marks purged samples and
//     recounts heap tops from the index without decoding a sample; audience
//     queries and dense sketches run on the decrementing imm.CodedCoverage.
//     Both give the same answer (DESIGN.md §18).
//   - Snapshots: the versioned, checksummed rrr format persists a sketch
//     so a restarted server warm-starts in seconds instead of resampling.
//   - Cache: sketches are cached by key with single-flight population — a
//     thundering herd for an uncached configuration triggers exactly one
//     sampling run.
//   - Front: Server is the local backend of a front.Front (internal/front),
//     which owns admission, the /v1/seeds and /v1/spread schema, NDJSON
//     streaming, /healthz, /v1/metrics and the drain — the same front the
//     router runs. Server adds its own routes to the front's mux: the
//     dynamic-mode delta route (DESIGN.md §15), the shard API in shard
//     mode, and opt-in net/http/pprof.
package server
