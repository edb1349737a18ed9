package imm

import (
	"fmt"
	"slices"
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/gen"
	"influmax/internal/graph"
	"influmax/internal/rng"
	"influmax/internal/rrr"
)

// BenchmarkSelectBudgeted prices the budgeted (cost-aware CELF) selection
// loop against the plain top-k loop it extends, on the soc-LiveJournal1
// analog with the same sketch sizing the other gate benchmarks use. Both
// sub-benchmarks run over a prebuilt index so the numbers isolate the
// selection loops themselves: "plain" is the k-argmax purge loop,
// "budgeted" adds the lazy ratio heap, per-vertex costs and the budget
// admission check. The pair rides the CI bench-gate baseline — a
// regression in "budgeted" that leaves "plain" flat points at the heap,
// not the shared purge machinery.
func BenchmarkSelectBudgeted(b *testing.B) {
	g := benchGraph(b, func(g *graph.Graph) { g.AssignWeightedCascade() })
	n := g.NumVertices()
	const samples = 200000
	const benchSeed = 3
	col := rrrCollection(g, benchSeed, samples)
	const workers = 8
	idx := rrr.BuildIndex(col, workers)
	k := 100
	if k > n {
		k = n
	}
	costs := make([]float64, n)
	for v := range costs {
		costs[v] = float64(1 + v%7)
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SelectQueryIndexed(col, idx, nil, Query{K: k}, workers); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("budgeted", func(b *testing.B) {
		q := Query{K: k, Costs: costs, Budget: float64(k)}
		for i := 0; i < b.N; i++ {
			res, err := SelectQueryIndexed(col, idx, nil, q, workers)
			if err != nil {
				b.Fatal(err)
			}
			if res.SpentBudget > q.Budget {
				b.Fatalf("spent %.1f over budget %.1f", res.SpentBudget, q.Budget)
			}
		}
	})
}

// servedSketch builds the byte-coded sketch immserve keeps, in the served
// regime the paper-regime benchmarks miss: a com-YouTube analog under
// weighted cascade, so n dwarfs the mean sample size (under ten) and a
// selection's cost is what it does per vertex and per round, not the
// entries it decodes.
func servedSketch(tb testing.TB, scale float64, k int) (*rrr.CodedCollection, *rrr.Index, []graph.Vertex) {
	tb.Helper()
	opt := servedOptions(k)
	opt.Store = StoreCoded
	_, col, idx, err := RunSketch(servedGraph(tb, scale), opt)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Logf("n %d, %d samples of mean size %.1f", col.NumVertices(), col.Count(), float64(col.TotalSize())/float64(col.Count()))
	return col, idx, RootsRange(opt.Seed, 0, col.Count(), col.NumVertices(), 2)
}

// servedGraph is the com-YouTube analog at scale under weighted cascade,
// and servedOptions the sketch sizing immserve uses over it.
func servedGraph(tb testing.TB, scale float64) *graph.Graph {
	tb.Helper()
	d, err := gen.ByName("com-YouTube")
	if err != nil {
		tb.Fatal(err)
	}
	g := d.Generate(scale, 1)
	g.AssignWeightedCascade()
	return g
}

func servedOptions(k int) Options {
	return Options{K: k, Epsilon: 0.3, Model: diffuse.IC, Workers: 2, Seed: 1}
}

// BenchmarkLabeling records what the frequency relabeling (StoreCoded)
// costs and buys against identity labels (StoreFlat) on serve-routed's
// sketch (n 113k, k 100, two workers): the transcode from the flat arena,
// the store's bytes (the relabel table's among them, reported by the
// transcode sub-benchmark) and the decrementing selection a shard runs,
// plain and with the plain answer's first ten seeds blocked. The seeds
// are the same under both labelings.
func BenchmarkLabeling(b *testing.B) {
	const k, p = 100, 2
	_, col, idx, err := Draw(servedGraph(b, 0.1), servedOptions(k))
	if err != nil {
		b.Fatal(err)
	}
	n := col.NumVertices()
	selectOn := func(coded *rrr.CodedCollection, q Query) []graph.Vertex {
		res, err := Greedy(NewCodedCoverage(coded, idx, nil, p), n, q, nil)
		if err != nil {
			b.Fatal(err)
		}
		return res.Seeds
	}
	var rival []graph.Vertex
	for _, lab := range []struct {
		name  string
		store StoreKind
	}{{"identity", StoreFlat}, {"relabeled", StoreCoded}} {
		coded := Transcode(col, lab.store, p)
		if seeds := selectOn(coded, Query{K: 10}); rival == nil {
			rival = seeds
		} else if !slices.Equal(seeds, rival) {
			b.Fatalf("%s selects %v, identity labels %v", lab.name, seeds, rival)
		}
		b.Run(lab.name+"/transcode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Transcode(col, lab.store, p)
			}
			b.ReportMetric(float64(coded.Bytes()), "store-B")
			b.ReportMetric(float64(coded.Relabeling().Bytes()), "table-B")
		})
		for _, q := range []struct {
			name string
			q    Query
		}{{"plain", Query{K: k}}, {"blocked", Query{K: k, Blocked: rival}}} {
			b.Run(lab.name+"/"+q.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					selectOn(coded, q.q)
				}
			})
		}
	}
}

// servedQueries is one query of each shape over a served sketch: a 1 %
// audience, and the plain answer's first ten seeds as the rival's.
func servedQueries(col *rrr.CodedCollection, idx *rrr.Index, k int) map[string]Query {
	var audience []graph.Vertex
	for v := 0; v < col.NumVertices(); v += 100 {
		audience = append(audience, graph.Vertex(v))
	}
	rival, _ := SelectSeedsSketch(col, idx, 10, 2)
	return map[string]Query{
		"plain":    {K: k},
		"budgeted": {K: k, Budget: float64(k) / 2},
		"targeted": {K: k, Audience: audience},
		"blocked":  {K: k, Blocked: rival},
	}
}

// BenchmarkServeQuery prices one query of each shape at the size
// serve-mixed serves (n 113k, 165k samples, k 100, two workers). An
// O(n)-per-round scan or fold shows here as a multiple; the other gate
// benchmarks sit in the paper regime and cannot see one.
func BenchmarkServeQuery(b *testing.B) {
	const k = 100
	col, idx, roots := servedSketch(b, 0.1, k)
	queries := servedQueries(col, idx, k)
	for _, name := range []string{"plain", "budgeted", "targeted", "blocked"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := SelectQuerySketch(col, idx, roots, queries[name], 2)
				if err != nil || len(res.Seeds) == 0 {
					b.Fatalf("%d seeds, %v", len(res.Seeds), err)
				}
			}
		})
	}
}

// TestLazyArgmaxWorkGate bounds the argmax's work by count, not by clock:
// over a fixed-seed served-regime sketch, the heap entries one query
// examines (pops, re-keys and drops together) and the entries it pulls
// from the sorted order into the heap each stay under n/8 for every shape
// at k 50 — the dense scan this replaced examined k·n, and a heap over
// every vertex holds n. The budgeted shape also pins the early stop:
// without it a spent budget pops every entry.
func TestLazyArgmaxWorkGate(t *testing.T) {
	const k = 50
	col, idx, roots := servedSketch(t, 0.02, k)
	n := col.NumVertices()
	for name, q := range servedQueries(col, idx, k) {
		g := new(greedy[int32])
		if err := g.run(NewCodedCoverage(col, idx, roots, 2), n, q, nil); err != nil || len(g.res.Seeds) == 0 {
			t.Fatalf("%s: %d seeds, %v", name, len(g.res.Seeds), err)
		}
		t.Logf("%s: %d seeds, %d heap entries examined, %d pulled (n %d)", name, len(g.res.Seeds), g.pops, g.pulled, n)
		if g.pops > n/8 {
			t.Errorf("%s: examined %d heap entries for %d seeds, want at most n/8 = %d", name, g.pops, len(g.res.Seeds), n/8)
		}
		if g.pulled > n/8 {
			t.Errorf("%s: pulled %d entries into the heap for %d seeds, want at most n/8 = %d", name, g.pulled, len(g.res.Seeds), n/8)
		}
	}
}

// BenchmarkSelectDensity prices the sketch backends across the mean
// sample size over n: CodedCoverage decodes the members of every sample a
// purge covers, IndexCoverage re-reads the postings of every heap top it
// recounts, and MatrixCoverage recounts a heap top from one word per 64
// samples. The sweep is the served com-YouTube analog (n 113k), whose
// samples go from a few vertices under weighted cascade to a large share
// of n as a constant IC probability rises; more points put the rules on
// other graphs: soc-Epinions1 under weighted cascade (serve-delta's
// graph), and com-DBLP under uniform IC (solve-ic's) and under constant
// IC probabilities that sweep the mean size across n/32, where the bit
// matrix becomes smaller than the flat arena. Each point draws samples
// up to a fixed entry total and times a plain and a blocked k = 100
// selection on each backend; the matrix runs only where it is at most
// four times the flat arena, near and past that break-even.
// recountSparsity, the constant of PreferRecount, is read off where the
// first two cross (EXPERIMENTS.md). The benchmark prices rules rather
// than guarding a path, so it is not gated.
func BenchmarkSelectDensity(b *testing.B) {
	type point struct {
		name, dataset string
		scale         float64
		weights       func(*graph.Graph)
	}
	wc := func(g *graph.Graph) { g.AssignWeightedCascade() }
	ic := func(p float32) func(*graph.Graph) { return func(g *graph.Graph) { g.AssignConstant(p) } }
	points := []point{
		{"wc", "com-YouTube", 0.1, wc},
		{"ic0.010", "com-YouTube", 0.1, ic(0.01)},
		{"ic0.015", "com-YouTube", 0.1, ic(0.015)},
		{"ic0.020", "com-YouTube", 0.1, ic(0.02)},
		{"ic0.025", "com-YouTube", 0.1, ic(0.025)},
		{"ic0.030", "com-YouTube", 0.1, ic(0.03)},
		{"ic0.040", "com-YouTube", 0.1, ic(0.04)},
		{"ic0.060", "com-YouTube", 0.1, ic(0.06)},
		{"ic0.100", "com-YouTube", 0.1, ic(0.1)},
		{"epinions-wc", "soc-Epinions1", 0.2, wc},
		{"dblp-uniform", "com-DBLP", 0.03, func(g *graph.Graph) { g.AssignUniform(2) }},
		{"dblp-ic0.15", "com-DBLP", 0.03, ic(0.15)},
		{"dblp-ic0.20", "com-DBLP", 0.03, ic(0.2)},
		{"dblp-ic0.25", "com-DBLP", 0.03, ic(0.25)},
		{"dblp-ic0.30", "com-DBLP", 0.03, ic(0.3)},
	}
	const k, entries, maxCount = 100, 3_000_000, 165_000
	for _, pt := range points {
		d, err := gen.ByName(pt.dataset)
		if err != nil {
			b.Fatal(err)
		}
		g := d.Generate(pt.scale, 1)
		pt.weights(g)
		n := g.NumVertices()
		col := rrr.NewCollection(n)
		sampler := diffuse.NewSampler(g, diffuse.IC)
		r := rng.New(rng.NewLCG(1))
		var buf []graph.Vertex
		for col.TotalSize() < entries && col.Count() < maxCount {
			buf = sampler.GenerateRR(r, graph.Vertex(r.Intn(n)), buf[:0])
			col.Append(buf)
		}
		idx := rrr.BuildIndex(col, 2)
		coded := Transcode(col, StoreFlat, 2)
		rival, _ := SelectSeedsSketch(coded, idx, 10, 2)
		queries := []struct {
			name string
			q    Query
		}{{"plain", Query{K: k}}, {"blocked", Query{K: k, Blocked: rival}}}
		backends := []struct {
			name string
			be   func() Coverage[int32]
		}{
			{"decrement", func() Coverage[int32] { return NewCodedCoverage(coded, idx, nil, 2) }},
			{"recount", func() Coverage[int32] { return NewIndexCoverage(idx) }},
		}
		if rrr.MatrixBytes(n, col.Count()) <= 4*col.Bytes() {
			mat := rrr.MatrixOf(col, 2)
			backends = append(backends, struct {
				name string
				be   func() Coverage[int32]
			}{"matrix", func() Coverage[int32] { return newMatrixCoverage(mat, 2) }})
		}
		density := float64(col.TotalSize()) / float64(col.Count()) / float64(n)
		for _, qc := range queries {
			for _, bc := range backends {
				b.Run(fmt.Sprintf("%s/density=%.1e/%s/%s", pt.name, density, qc.name, bc.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := Greedy(bc.be(), n, qc.q, nil); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
