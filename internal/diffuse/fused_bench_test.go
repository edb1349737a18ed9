package diffuse

import (
	"testing"

	"influmax/internal/graph"
	"influmax/internal/rng"
)

// benchFusedGraph is a heavy-tailed RMAT-like random graph stand-in sized
// so the kernels' working sets resemble the imm-level benchmark without
// importing internal/gen (which would cycle).
func benchFusedGraph(seed uint64, n, m int) *graph.Graph {
	r := rng.New(rng.NewLCG(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		// Square the draws toward low ids for a skewed degree profile.
		u := r.Intn(n) * r.Intn(n) / n
		v := r.Intn(n) * r.Intn(n) / n
		if u != v {
			b.Add(graph.Vertex(u), graph.Vertex(v), 0)
		}
	}
	return b.Build()
}

// BenchmarkGenerate compares the scalar and fused kernels head to head at
// the diffuse level (no scheduler, no merge): pure kernel cost, for IC at
// a constant p, under uniform-random per-edge weights (solve-ic's
// weighting: per-edge thresholds, most samples huge) and under weighted
// cascade (one threshold per list), and for LT over WC-normalised weights
// (every in-list uniform: the fused walk's closed-form pick) and over
// uniform-random weights (the running-sum scan).
func BenchmarkGenerate(b *testing.B) {
	const count = 2000
	regimes := []struct {
		name  string
		model Model
		m     int // edges drawn over 10,000 vertices
		prep  func(g *graph.Graph)
	}{
		{"IC", IC, 140000, func(g *graph.Graph) { g.AssignConstant(0.06) }},
		// solve-ic's in-lists average about 3.3 edges.
		{"IC-uniform", IC, 35000, func(g *graph.Graph) { g.AssignUniform(1) }},
		{"IC-WC", IC, 140000, func(g *graph.Graph) { g.AssignWeightedCascade() }},
		{"LT-WC", LT, 140000, func(g *graph.Graph) { g.AssignWeightedCascade(); g.NormalizeLT() }},
		{"LT-uniform", LT, 140000, func(g *graph.Graph) { g.AssignUniform(1); g.NormalizeLT() }},
	}
	for _, rc := range regimes {
		g := benchFusedGraph(1, 10000, rc.m)
		rc.prep(g)
		b.Run(rc.name+"/scalar", func(b *testing.B) {
			var verts []graph.Vertex
			var sizes []int32
			s := NewSampler(g, rc.model)
			gen := rng.NewSplitMix64(0)
			r := rng.New(gen)
			n := g.NumVertices()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verts, sizes = verts[:0], sizes[:0]
				for j := 0; j < count; j++ {
					gen.Reseed(7, uint64(j))
					root := graph.Vertex(r.Intn(n))
					before := len(verts)
					verts = s.GenerateRR(r, root, verts)
					sizes = append(sizes, int32(len(verts)-before))
				}
			}
		})
		b.Run(rc.name+"/fused", func(b *testing.B) {
			var verts []graph.Vertex
			var sizes []int32
			f := newFusedSampler(g, rc.model)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verts, sizes = f.Generate(7, 0, count, verts[:0], sizes[:0])
			}
		})
	}
}
