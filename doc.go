// Package influmax is a fast, scalable influence-maximization library: a
// from-scratch Go reproduction of "Fast and Scalable Implementations of
// Influence Maximization Algorithms" (Minutoli et al., IEEE CLUSTER 2019),
// the paper behind the Ripples framework.
//
// Given a directed graph with edge activation probabilities, a diffusion
// model (Independent Cascade or Linear Threshold) and a budget k, the
// library finds a k-vertex seed set whose expected influence spread is a
// (1 - 1/e - eps)-approximation of the optimum with high probability,
// using the IMM algorithm of Tang et al. (SIGMOD 2015) parallelized for
// shared memory (goroutine worker pools standing in for OpenMP) and
// distributed memory (an MPI-like message-passing substrate with
// in-process and TCP transports).
//
// # Quick start
//
//	g := influmax.Generate("cit-HepTh", 0.05, 1) // synthetic SNAP analog
//	g.AssignUniform(7)                           // p(e) ~ U[0,1)
//	res, err := influmax.Maximize(g, influmax.Options{
//	    K: 50, Epsilon: 0.5, Model: influmax.IC,
//	})
//	// res.Seeds holds the seed set; res.EstimatedSpread its quality.
//
// # Implementations
//
//   - Maximize with Options.Workers == 1: IMMopt, the optimized sequential
//     implementation (compact one-directional RRR store);
//   - Maximize with Options.Workers > 1: IMMmt, the multithreaded
//     implementation (parallel sampling, synchronization-free seed
//     selection via vertex-interval ownership);
//   - MaximizeBaseline: the Tang-style reference baseline (bidirectional
//     hypergraph store), kept for comparison;
//   - MaximizeDistributed: IMMdist over an mpi.Comm (see LocalCluster for
//     in-process ranks and the cmd/immdist tool for TCP clusters).
//
// # Surface
//
// This package is the library surface; the command-line tools under cmd/
// import the engine packages directly. It holds five groups:
//
//   - graphs: Graph, Vertex, Edge, NewBuilder, FromEdges, ParseEdgeList,
//     and Generate over DatasetNames for synthetic SNAP analogs;
//   - models, options and phases: Model (IC, LT), Options, Result, the
//     PerSample and LeapFrog RNG disciplines, StoreKind (StoreFlat,
//     StoreCoded: a kept sketch's labeling), and Phase with the five
//     Algorithm 1 phases;
//   - maximizing: Maximize, MaximizeBaseline, and MaximizeDistributed over
//     LocalCluster's Comms with DistOptions and DistResult;
//   - spread and baselines: Spread, SpreadCurve, CELF, TopDegree and
//     DegreeDiscount; metrics: MetricsRegistry, RunReport and Report;
//   - serving: Serve a ServeConfig as a SeedServer, or drive a Sketch
//     directly with BuildSketch, SaveSnapshot, LoadSnapshot, QuerySketch
//     and EstimateSpread; WeightPolicy configures a dynamic server.
//
// The paper's experiment harness, the distributed transports and fault
// injection, the shard fleet and the other baselines live under internal/
// and ship through the cmd and examples directories.
package influmax
