package imm

import (
	"slices"
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/metrics"
	"influmax/internal/rrr"
)

// TestFusedMatchesScalar is the tentpole's equivalence gate: in PerSample
// RNG mode the fused CSR frontier kernel must produce a Collection
// byte-identical to the scalar kernel — for every graph, model, worker
// count, and batch size (samples per Sample call, so small batches
// exercise partial fused batches and B > count tails) — and the downstream
// SelectSeedsIndexed output must therefore match too.
func TestFusedMatchesScalar(t *testing.T) {
	graphs := []struct {
		seed uint64
		n, m int
	}{
		{11, 80, 600},
		{22, 150, 1300},
		{33, 300, 2500},
	}
	const count = 384 // divisible by every batch size below
	const k = 10
	for _, gc := range graphs {
		for _, mc := range scheduleModels {
			g := scheduleGraph(gc.seed, gc.n, gc.m, mc.prep)

			ref := rrr.NewCollection(gc.n)
			NewBatchSampler(g, Options{
				Model: mc.model, Workers: 1, Seed: gc.seed, scalar: true,
			}).Sample(ref, count)
			refSeeds, refCov := SelectSeedsIndexed(ref, rrr.BuildIndex(ref, 1), k, 1)

			for _, w := range []int{1, 4} {
				for _, batch := range []int{1, 8, 64} {
					col := rrr.NewCollection(gc.n)
					bs := NewBatchSampler(g, Options{
						Model: mc.model, Workers: w, Seed: gc.seed,
					})
					for done := 0; done < count; done += batch {
						bs.Sample(col, batch)
					}
					if !sameCollection(ref, col) {
						t.Fatalf("graph=%d model=%s workers=%d batch=%d: fused collection != scalar",
							gc.seed, mc.name, w, batch)
					}
					if bad := col.CheckInvariants(); bad != -1 {
						t.Fatalf("graph=%d model=%s workers=%d batch=%d: invariants broken at sample %d",
							gc.seed, mc.name, w, batch, bad)
					}
					seeds, cov := SelectSeedsIndexed(col, rrr.BuildIndex(col, w), k, w)
					if !slices.Equal(seeds, refSeeds) || cov != refCov {
						t.Fatalf("graph=%d model=%s workers=%d batch=%d: seeds (%v, %d) != scalar (%v, %d)",
							gc.seed, mc.name, w, batch, seeds, cov, refSeeds, refCov)
					}
				}
			}
		}
	}
}

// TestFusedDegenerateInputs sweeps the kernel through the shapes that break
// naive batch bookkeeping — an edgeless graph, self-loops, isolated
// vertices — and through counts far below the 64-lane batch width
// (B > theta), asserting byte-identity with the scalar kernel throughout.
func TestFusedDegenerateInputs(t *testing.T) {
	build := func(n int, edges [][2]int, w float32) *graph.Graph {
		b := graph.NewBuilder(n)
		for _, e := range edges {
			b.Add(graph.Vertex(e[0]), graph.Vertex(e[1]), w)
		}
		return b.Build()
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", build(8, nil, 0)},
		{"self-loops", build(6, [][2]int{{0, 0}, {1, 1}, {0, 1}, {1, 2}, {2, 0}, {5, 5}}, 0.9)},
		{"isolated", build(12, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 0.8)},
	}
	for _, tc := range cases {
		for _, model := range []diffuse.Model{diffuse.IC, diffuse.LT} {
			g := tc.g
			if model == diffuse.LT {
				g.NormalizeLT()
			}
			// count=3 stays far below the 64-lane width: a single partial batch.
			for _, count := range []int{3, 200} {
				ref := rrr.NewCollection(g.NumVertices())
				NewBatchSampler(g, Options{
					Model: model, Workers: 2, Seed: 5, scalar: true,
				}).Sample(ref, count)
				col := rrr.NewCollection(g.NumVertices())
				NewBatchSampler(g, Options{
					Model: model, Workers: 2, Seed: 5,
				}).Sample(col, count)
				if !sameCollection(ref, col) {
					t.Fatalf("%s/%v count=%d: fused collection != scalar", tc.name, model, count)
				}
			}
		}
	}
}

// TestFusedRunPipelineIdentical runs full Algorithm 1 under both kernels:
// Theta, the seed set, and the coverage must be identical, so the kernel
// a PerSample run samples with can never change a result. The fused run must also surface its
// telemetry in the Result and the registry.
func TestFusedRunPipelineIdentical(t *testing.T) {
	g := testGraph(44, 140, 1100)
	ref, err := Run(g, Options{K: 8, Epsilon: 0.5, Model: diffuse.IC, Workers: 2, Seed: 3, scalar: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.FrontierPasses != 0 || ref.CoinsGenerated != 0 || ref.BatchOccupancy != 0 {
		t.Fatalf("scalar run reported fused telemetry: %+v", ref)
	}
	if got := ref.Report(Options{}).Kernel; got != "scalar" {
		t.Fatalf("scalar run reported kernel %q", got)
	}
	reg := metrics.NewRegistry()
	res, err := Run(g, Options{K: 8, Epsilon: 0.5, Model: diffuse.IC, Workers: 2, Seed: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Seeds, ref.Seeds) || res.Theta != ref.Theta ||
		res.CoverageFraction != ref.CoverageFraction {
		t.Fatalf("fused run (%v, theta=%d) != scalar (%v, theta=%d)",
			res.Seeds, res.Theta, ref.Seeds, ref.Theta)
	}
	if res.FrontierPasses <= 0 || res.CoinsGenerated < int64(res.SamplesGenerated) {
		t.Fatalf("fused telemetry missing: passes=%d coins=%d", res.FrontierPasses, res.CoinsGenerated)
	}
	if res.BatchOccupancy <= 0 || res.BatchOccupancy > 1 {
		t.Fatalf("BatchOccupancy = %v, want in (0, 1]", res.BatchOccupancy)
	}
	if got := reg.Counter("rrr/frontier-passes").Value(); got != res.FrontierPasses {
		t.Fatalf("rrr/frontier-passes counter %d != Result %d", got, res.FrontierPasses)
	}
	if got := reg.Counter("rrr/coins-generated").Value(); got != res.CoinsGenerated {
		t.Fatalf("rrr/coins-generated counter %d != Result %d", got, res.CoinsGenerated)
	}
	if got := reg.Gauge("rrr/batch-occupancy").Value(); got != int64(res.BatchOccupancy*1000) {
		t.Fatalf("rrr/batch-occupancy gauge %d != permille of %v", got, res.BatchOccupancy)
	}

	rep := res.Report(Options{K: 8, Epsilon: 0.5, Model: diffuse.IC, Workers: 2, Seed: 3})
	if rep.Kernel != "fused" || rep.FrontierPasses != res.FrontierPasses ||
		rep.CoinsGenerated != res.CoinsGenerated || rep.BatchOccupancy != res.BatchOccupancy {
		t.Fatalf("report kernel fields not copied: %+v", rep)
	}
}

// TestFusedLeapFrogFallsBack: LeapFrog's worker-pinned streams cannot be
// lane-batched, so a LeapFrog BatchSampler must always run the scalar
// kernel — reproducing the scalar-static LeapFrog layout exactly, with no
// fused telemetry.
func TestFusedLeapFrogFallsBack(t *testing.T) {
	g := testGraph(88, 100, 800)
	const count = 400
	for _, w := range []int{1, 4} {
		ref := rrr.NewCollection(100)
		NewBatchSampler(g, Options{
			Model: diffuse.IC, Workers: w, Seed: 6, RNG: LeapFrog, scalar: true, static: true,
		}).Sample(ref, count)

		col := rrr.NewCollection(100)
		bs := NewBatchSampler(g, Options{Model: diffuse.IC, Workers: w, Seed: 6, RNG: LeapFrog})
		bs.Sample(col, count)
		if !sameCollection(ref, col) {
			t.Fatalf("workers=%d: LeapFrog collection != scalar-static LeapFrog collection", w)
		}
		if st := bs.fusedTotals; st != (diffuse.FusedStats{}) {
			t.Fatalf("workers=%d: LeapFrog run recorded fused work: %+v", w, st)
		}
	}
}
