// Package mpi is the message-passing substrate underneath the distributed
// IMM implementation. The paper's algorithm needs only the classic
// single-program-multiple-data discipline: p ranks, point-to-point
// send/receive, and one collective, an AllReduce ("the dominant
// communication of the distributed implementation is due to the
// All-Reduce operations", Section 3.2).
//
// Two transports implement the Comm interface: an in-process transport
// (ranks are goroutines exchanging buffers through mailboxes; the analog of
// running MPI ranks on one node) and a TCP transport (ranks are processes
// in a full mesh of length-framed connections; the analog of a cluster).
// WithFaults decorates either with a seeded fault injector. The
// collectives are transport-agnostic, and there are exactly two:
//
//   - AllReduce sums per-vertex int64 counters over a binomial tree, giving
//     the O(log p) step counts the paper's communication analysis assumes.
//     It is the whole of IMMdist's seed selection traffic: one sum to form
//     the global counters, then one sum per selected seed — k+1 reductions
//     of n elements, the O(k n log p) term of the analysis. Every rank
//     derives theta and the seeds from the same reduced counters, so no
//     other collective is needed to keep the ranks in step.
//   - GatherBytes carries each rank's opaque payload to rank 0: the
//     per-rank RunReport sub-reports of internal/metrics.
//
// Usage contract (as in MPI): each rank drives its Comm from a single
// goroutine, and all ranks issue the same sequence of collective calls.
package mpi
