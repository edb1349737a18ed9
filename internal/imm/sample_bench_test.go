package imm

import (
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/gen"
	"influmax/internal/graph"
	"influmax/internal/rrr"
)

// benchGraph builds the soc-LiveJournal1 analog the sampling benchmarks
// share: a skewed power-law graph whose reverse cascades are heavy-tailed —
// most RRR sets are tiny, a few span thousands of vertices.
func benchGraph(b *testing.B, weights func(*graph.Graph)) *graph.Graph {
	b.Helper()
	d, err := gen.ByName("soc-LiveJournal1")
	if err != nil {
		b.Fatal(err)
	}
	g := d.Generate(0.002, 1)
	weights(g)
	return g
}

// BenchmarkSampleBatch compares the scalar per-sample kernel against the
// fused CSR frontier kernel on the soc-LiveJournal1 analog, under both the
// near-critical constant-p IC setup (Tang et al.) and weighted-cascade
// weights. The two kernels produce byte-identical collections (see
// TestFusedMatchesScalar); only the cost per sample differs — the fused
// kernel amortizes RNG and CSR traversal over 64-sample batches, which is
// the speedup the bench-gate CI job pins. Sub-benchmark names are
// <kernel>/<weights>; the CI gate consumes scalar/* and fused/*.
func BenchmarkSampleBatch(b *testing.B) {
	weightings := []struct {
		name    string
		weights func(*graph.Graph)
	}{
		{"IC", func(g *graph.Graph) { g.AssignConstant(0.06) }},
		{"WC", func(g *graph.Graph) { g.AssignWeightedCascade() }},
	}
	const count = 20000
	const workers = 8
	for _, kc := range []struct {
		name   string
		scalar bool
	}{
		{"scalar", true},
		{"fused", false},
	} {
		for _, wc := range weightings {
			b.Run(kc.name+"/"+wc.name, func(b *testing.B) {
				g := benchGraph(b, wc.weights)
				bs := NewBatchSampler(g, Options{
					Model: diffuse.IC, Workers: workers, Seed: 7, scalar: kc.scalar,
				})
				col := rrr.NewCollection(g.NumVertices())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					col.Truncate(0)
					bs.Sample(col, count)
				}
				b.StopTimer()
				b.ReportMetric(bs.WorkBalance()*1000, "balance‰")
				b.ReportMetric(float64(col.TotalSize())/count, "entries/sample")
				if st := bs.fusedTotals; st.Batches > 0 {
					b.ReportMetric(st.Occupancy()*1000, "occupancy‰")
					b.ReportMetric(float64(st.Coins)/float64(b.N), "coins/op")
				}
			})
		}
	}
}

// BenchmarkSampleSchedules keeps the schedule comparison of the
// work-stealing PR: static contiguous split vs guided stealing, scalar
// kernel, constant-p IC. On single-core CI only the balance metric is
// meaningful; wall-clock speedup needs parallel hardware.
func BenchmarkSampleSchedules(b *testing.B) {
	g := benchGraph(b, func(g *graph.Graph) { g.AssignConstant(0.06) })
	const count = 20000
	const workers = 8
	for _, tc := range []struct {
		name   string
		static bool
	}{
		{"static", true},
		{"dynamic", false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			bs := NewBatchSampler(g, Options{
				Model: diffuse.IC, Workers: workers, Seed: 7, static: tc.static, scalar: true,
			})
			col := rrr.NewCollection(g.NumVertices())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col.Truncate(0)
				bs.Sample(col, count)
			}
			b.StopTimer()
			b.ReportMetric(bs.WorkBalance()*1000, "balance‰")
			b.ReportMetric(float64(bs.steals)/float64(b.N), "steals/op")
			b.ReportMetric(float64(col.TotalSize())/count, "entries/sample")
		})
	}
}

// TestFusedWorkGate pins what the fused kernel's speed rests on as work
// counts — pure functions of the input, so the verdict is the same on any
// machine (the wall-clock comparison is BenchmarkSampleBatch's scalar vs
// fused pair under make bench-gate). On the soc-LiveJournal1 analog, under
// both IC (constant-p) and WC weights: batches run full, each sample
// expands between one BFS level and one level per stored entry (sharing a
// batch never adds a level), and the kernel draws at most
// the coins the scalar kernel's traversal pays for, one root draw per
// sample plus one per in-edge of a visited vertex.
func TestFusedWorkGate(t *testing.T) {
	if testing.Short() {
		t.Skip("work gate samples full-size cascades")
	}
	d, err := gen.ByName("soc-LiveJournal1")
	if err != nil {
		t.Fatal(err)
	}
	for _, wc := range []struct {
		name    string
		weights func(*graph.Graph)
	}{
		{"IC", func(g *graph.Graph) { g.AssignConstant(0.06) }},
		{"WC", func(g *graph.Graph) { g.AssignWeightedCascade() }},
	} {
		t.Run(wc.name, func(t *testing.T) {
			g := d.Generate(0.002, 1)
			wc.weights(g)
			const count = 6000
			bs := NewBatchSampler(g, Options{Model: diffuse.IC, Workers: 1, Seed: 7})
			col := rrr.NewCollection(g.NumVertices())
			bs.Sample(col, count)
			st := bs.fusedTotals
			var edgeVisits int64
			for j := 0; j < col.Count(); j++ {
				for _, u := range col.Sample(j) {
					edgeVisits += int64(g.InDegree(u))
				}
			}
			t.Logf("%s: %d batches, %d passes over %d entries, %d coins vs %d scalar edge visits",
				wc.name, st.Batches, st.Passes, col.TotalSize(), st.Coins, edgeVisits)
			if full := int64(count+diffuse.MaxLanes-1) / diffuse.MaxLanes; st.Batches != full || st.ActiveLanes != count {
				t.Fatalf("%d samples ran as %d batches with %d active lanes, want %d full batches", count, st.Batches, st.ActiveLanes, full)
			}
			if st.Passes < count || st.Passes > col.TotalSize() {
				t.Fatalf("%d frontier passes (BFS levels) for %d samples of %d entries, want within [one per sample, one per entry]", st.Passes, count, col.TotalSize())
			}
			if st.Coins < count || st.Coins > count+edgeVisits {
				t.Fatalf("%d coins, want within [%d roots, roots + %d scalar edge visits]", st.Coins, count, edgeVisits)
			}
		})
	}
}
