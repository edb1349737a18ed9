// Package server is the resident sketch-serving layer (immserve): a
// long-running HTTP service that answers seed-set queries from a
// precomputed RRR sketch instead of re-running the paper's batch pipeline
// per request.
//
// The cost structure that justifies it: sampling theta RRR sets is the
// expensive phase (minutes on the large SNAP analogs — the dominant bars
// of the paper's figures), while greedy selection over a prebuilt inverted
// incidence index is ~100ms even at k in the hundreds. A sketch sized for
// a configured kMax and epsilon therefore turns every query for k <= kMax
// into a sub-second indexed selection. HBMax (Chen et al.) and Wang et
// al.'s space-efficient parallel IM make the same observation — the
// sketch, not selection, dominates memory and time — which is exactly what
// justifies computing it once, compressing it, persisting it, and serving
// from it.
//
// The moving parts:
//
//   - Sketch: an immutable, query-ready unit — a byte-coded
//     CodedCollection of theta samples (identity labeling under
//     imm.StoreFlat, frequency-relabeled under imm.StoreCoded — DESIGN.md
//     §13), its CSR inverted incidence index, and the identifying key
//     (graph digest, model, epsilon, kMax, seed). Every query shape
//     runs Sketch.QueryEx -> imm.SelectQuerySketch, the selection engine
//     over an imm.CodedCoverage: copy-on-read state (degree-seeded
//     counters, covered bitset, taken from a pool for the length of the
//     query), so concurrent queries never mutate the shared sketch.
//   - Snapshots: the rrr snapshot format (versioned, checksummed, chunked
//     I/O, max-size guard) persists a sketch so a restarted server
//     warm-starts in seconds instead of resampling; the graph digest in
//     the meta block keeps a snapshot from being served against the wrong
//     graph.
//   - Cache: sketches are cached by key with single-flight population — a
//     thundering herd of queries for an uncached configuration triggers
//     exactly one sampling run; everyone else waits on it (or times out
//     while it keeps building in the background).
//   - Admission control: a bounded worker pool with a queue-depth limit.
//     Past the limit the server answers 429 with Retry-After instead of
//     queueing unboundedly; per-request timeouts bound the wait, and
//     Shutdown drains in-flight queries before returning.
//   - Operations: /healthz (503 while draining), /v1/metrics (the
//     metrics.Registry snapshot as JSON), and opt-in net/http/pprof.
package server
