package imm

import (
	"slices"
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/gen"
	"influmax/internal/graph"
)

// deltaBenchOptions is the shared configuration of the delta benchmarks:
// the same soc-LiveJournal1 analog and sketch sizing the serving
// benchmarks use, so "one delta batch" and "one cold rebuild" are costed
// against the same resident sketch.
func deltaBenchOptions() Options {
	return Options{K: 50, Epsilon: 0.5, Model: diffuse.IC, Workers: 8, Seed: 7}
}

// freshEdges returns k directed edges absent from g, scanning vertex
// pairs deterministically from the middle of the id range — in the RMAT
// analogs low ids are the hubs, so this yields TYPICAL edges (endpoints
// of around-median degree), which is what the per-delta price should
// reflect; the hub-targeting adversarial case is costed by the harness,
// not the benchmark. The edges never trip the overlay's
// edge-already-exists validation. The carried weight is irrelevant under
// the weighted-cascade policy (reweighting overrides it) but must still
// pass op validation.
func freshEdges(tb testing.TB, g *graph.Graph, k int) []graph.DeltaOp {
	tb.Helper()
	var ops []graph.DeltaOp
	n := graph.Vertex(g.NumVertices())
	for u := n / 2; u < n && len(ops) < k; u++ {
		dsts, _ := g.OutNeighbors(u)
		for v := n / 2; v < n && len(ops) < k; v++ {
			if u != v && !slices.Contains(dsts, v) {
				ops = append(ops, graph.DeltaOp{Kind: graph.DeltaInsert, Src: u, Dst: v, W: 0.06})
			}
		}
	}
	if len(ops) < k {
		tb.Fatalf("found %d absent edges, want %d", len(ops), k)
	}
	return ops
}

// BenchmarkApplyDelta prices incremental maintenance against the
// alternative it replaces: "delta" is one single-op batch folded into a
// resident dynamic sketch (insert on even iterations, delete of the same
// edge on odd — the graph stays bounded), "cold-rebuild" is the full IMM
// estimation + sampling + index run a static server would need after any
// mutation. Both use the weighted-cascade weighting the paper's IC
// experiments run under, with the matching WeightsWC policy — the
// worst-case repair regime, where every affected sample is invalidated
// and regenerated rather than extended. The ratio is the amortization
// argument of DESIGN.md §15 and is pinned by TestDeltaAmortizationGate;
// both numbers ride the CI bench-gate baselines.
func BenchmarkApplyDelta(b *testing.B) {
	opt := deltaBenchOptions()
	b.Run("delta", func(b *testing.B) {
		g := benchGraph(b, func(g *graph.Graph) { g.AssignWeightedCascade() })
		dyn, _, err := NewDynamicSketch(g, opt, WeightsWC)
		if err != nil {
			b.Fatal(err)
		}
		edges := freshEdges(b, g, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op := edges[0]
			if i%2 == 1 {
				op = graph.DeltaOp{Kind: graph.DeltaDelete, Src: op.Src, Dst: op.Dst}
			}
			if _, err := dyn.ApplyDelta(graph.Delta{op}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := dyn.Stats()
		if st.Batches > 0 {
			b.ReportMetric(float64(st.SamplesInvalidated+st.SamplesExtended)/float64(st.Batches), "repairs/batch")
		}
	})
	b.Run("cold-rebuild", func(b *testing.B) {
		g := benchGraph(b, func(g *graph.Graph) { g.AssignWeightedCascade() })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := RunCollect(g, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestDeltaAmortizationGate is the amortization argument of DESIGN.md §15
// as work counts — pure functions of the input, so the verdict is the same
// on any machine (the wall-clock comparison is BenchmarkApplyDelta's
// delta vs cold-rebuild pair under make bench-gate): on the
// soc-LiveJournal1 analog under weighted-cascade weights, folding a
// single-op batch into a resident sketch must regenerate at most 1/20 of
// the samples a cold rebuild samples, and PatchIndex must navigate at most
// 1/20 of the postings BuildIndex walks. The measured ratios are in the
// thousands and hundreds; the 20x floor just catches maintenance
// degenerating into rebuild-per-batch.
func TestDeltaAmortizationGate(t *testing.T) {
	if testing.Short() {
		t.Skip("amortization gate builds a full-size sketch")
	}
	d, err := gen.ByName("soc-LiveJournal1")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Generate(0.002, 1)
	g.AssignWeightedCascade()
	dyn, _, err := NewDynamicSketch(g, deltaBenchOptions(), WeightsWC)
	if err != nil {
		t.Fatal(err)
	}
	edges := freshEdges(t, g, 1)
	for i := 0; i < 6; i++ {
		op := edges[0]
		if i%2 == 1 {
			op = graph.DeltaOp{Kind: graph.DeltaDelete, Src: op.Src, Dst: op.Dst}
		}
		// PatchIndex navigates the repaired samples' old and new members;
		// the candidates are a superset of the repaired samples.
		prev, cands := dyn.Collection(), dyn.Index().SamplesOf(op.Dst)
		res, err := dyn.ApplyDelta(graph.Delta{op})
		if err != nil {
			t.Fatal(err)
		}
		var patched int64
		for _, j := range cands {
			patched += int64(len(prev.Sample(int(j))) + len(dyn.Collection().Sample(int(j))))
		}
		repaired := res.SamplesInvalidated + res.SamplesExtended
		t.Logf("batch %d: repaired %d of theta %d samples, patched %d of %d postings",
			i, repaired, dyn.Theta(), patched, dyn.Collection().TotalSize())
		if repaired*20 > dyn.Theta() {
			t.Fatalf("batch %d regenerated %d samples, more than 1/20 of theta = %d", i, repaired, dyn.Theta())
		}
		if patched*20 > dyn.Collection().TotalSize() {
			t.Fatalf("batch %d patched %d postings, more than 1/20 of the index's %d", i, patched, dyn.Collection().TotalSize())
		}
	}
}
