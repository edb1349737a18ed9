// Package mpi is the message-passing substrate underneath the distributed
// IMM implementation. The paper's algorithm needs only the classic
// single-program-multiple-data discipline: p ranks, point-to-point
// send/receive, and the collectives Barrier, Broadcast, Reduce, AllReduce,
// Gather and AllGather ("the dominant communication of the distributed
// implementation is due to the All-Reduce operations", Section 3.2).
//
// Two transports implement the Comm interface: an in-process transport
// (ranks are goroutines exchanging buffers through mailboxes; the analog of
// running MPI ranks on one node) and a TCP transport (ranks are processes
// in a full mesh of length-framed connections; the analog of a cluster).
// The collectives are transport-agnostic binomial trees, giving the same
// O(log p) step counts the paper's communication analysis assumes.
//
// Mapping to the paper's Section 3.2 machinery:
//
//   - AllReduce over per-vertex int64 counters is the whole of IMMdist's
//     seed selection traffic: one sum to form the global counters, then one
//     sum of decrements per selected seed — k+1 reductions of n elements,
//     the O(k n log p) term of the communication analysis. AllReduceRing is
//     the bandwidth-optimal alternative quantified by the ablation
//     benchmarks.
//   - Barrier and Broadcast implement the SPMD skeleton (all ranks run the
//     same Algorithm 1 control flow and must agree on theta).
//   - Gather, AllGather and GatherBytes support the harness and
//     observability layers: GatherBytes carries the per-rank RunReport
//     sub-reports of internal/metrics to rank 0.
//
// Usage contract (as in MPI): each rank drives its Comm from a single
// goroutine, and all ranks issue the same sequence of collective calls.
package mpi
