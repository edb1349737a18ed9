// Package dist implements IMMdist, the paper's distributed-memory IMM
// (Section 3.2), on top of the internal/mpi substrate.
//
// Design, following the paper exactly:
//
//   - every rank stores the entire input graph and generates a distinct
//     contiguous batch of theta/p samples (sampling dominates and
//     parallelizes embarrassingly; memory for R is what actually needs to
//     scale out);
//   - pseudorandom numbers come either from Leap Frog substreams of one
//     global LCG sequence (the paper's TRNG discipline) or from per-sample
//     derived streams (reproducible irrespective of p);
//   - seed selection is the shared greedy engine (imm.Greedy) over
//     allReduceCoverage: local counts are AllReduce-summed into global
//     counts, each rank then picks the same argmax locally, purges its
//     local samples, and the decrements are AllReduce-summed again — k
//     rounds, O(k n log p) communication;
//   - theta estimation is the shared loop imm.Estimate: each rank
//     extends its batch and knows the global sample count without a
//     collective, so only the selections communicate;
//   - within a rank, sampling and counting are additionally multithreaded
//     (the hybrid MPI+OpenMP model), via goroutines here.
//
// Observability: each rank's Result carries its own phase breakdown,
// sample counts and store footprint (the per-rank quantities behind
// Figures 7-8). Report is the collective that turns them into one
// metrics.RunReport — every rank contributes a RankReport, gathered to
// rank 0 over mpi.GatherBytes and merged there, so a distributed run
// emits exactly one machine-readable JSON document.
//
// The paper's future-work item (i), partitioning the graph across ranks
// as well as R, is not implemented: measured, it lost to this
// decomposition on time and on per-rank bytes at every width
// (EXPERIMENTS.md, "Extension").
//
// dist is the paper's algorithm and only that: each rank selects on its
// flat shard, the uint32 arena of Section 3.1, and a run's per-rank
// sample stores die with it. A serving fleet (internal/cluster) does not
// run dist; it cuts one in-process sample draw into id ranges instead.
package dist
