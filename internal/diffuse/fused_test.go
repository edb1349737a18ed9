package diffuse

import (
	"slices"
	"testing"

	"influmax/internal/graph"
	"influmax/internal/rng"
)

// scalarGenerate reproduces the per-sample scalar discipline the fused
// kernel must match byte for byte: sample i draws its root and all its
// coins from the stream rng.Derive(seed, base+i).
func scalarGenerate(g *graph.Graph, model Model, seed, base uint64, count int) ([]graph.Vertex, []int32) {
	s := NewSampler(g, model)
	gen := rng.NewSplitMix64(0)
	r := rng.New(gen)
	n := g.NumVertices()
	var verts []graph.Vertex
	var sizes []int32
	for i := 0; i < count; i++ {
		gen.Reseed(seed, base+uint64(i))
		root := graph.Vertex(r.Intn(n))
		before := len(verts)
		verts = s.GenerateRR(r, root, verts)
		sizes = append(sizes, int32(len(verts)-before))
	}
	return verts, sizes
}

// TestFusedGenerateMatchesScalar is the kernel-level byte-identity gate:
// for random graphs under IC, LT, and WC weights, Generate must emit the
// exact vertex arena and size vector of sequential scalar GenerateRR calls
// over the same per-sample streams — at full batches, partial batches, and
// counts spanning several batches.
func TestFusedGenerateMatchesScalar(t *testing.T) {
	graphs := []struct {
		seed uint64
		n, m int
	}{
		{3, 40, 300},
		{5, 120, 1000},
		{9, 250, 2600},
	}
	models := []struct {
		name  string
		model Model
		prep  func(g *graph.Graph, seed uint64)
	}{
		{"IC", IC, func(g *graph.Graph, seed uint64) { g.AssignUniform(seed) }},
		{"LT", LT, func(g *graph.Graph, seed uint64) { g.AssignUniform(seed); g.NormalizeLT() }},
		{"WC", IC, func(g *graph.Graph, seed uint64) { g.AssignWeightedCascade() }},
	}
	counts := []int{1, 8, MaxLanes - 1, MaxLanes, MaxLanes + 1, 3*MaxLanes + 17}
	for _, gc := range graphs {
		for _, mc := range models {
			g := randomGraph(gc.seed, gc.n, gc.m)
			mc.prep(g, gc.seed)
			f := newFusedSampler(g, mc.model)
			for _, count := range counts {
				base := uint64(1000) * gc.seed
				wantV, wantS := scalarGenerate(g, mc.model, gc.seed, base, count)
				gotV, gotS := f.Generate(gc.seed, base, count, nil, nil)
				if !slices.Equal(gotV, wantV) || !slices.Equal(gotS, wantS) {
					t.Fatalf("graph=%d model=%s count=%d: fused output != scalar",
						gc.seed, mc.name, count)
				}
			}
		}
	}
}

// TestFusedVisitedClearedBetweenBatches: the lane-mask visited bitset is
// cleared by output walk, so a stale bit would corrupt a later batch that
// reuses the lane. Running many consecutive batches through one sampler
// against fresh-sampler references catches any leak.
func TestFusedVisitedClearedBetweenBatches(t *testing.T) {
	g := randomGraph(17, 60, 700)
	g.AssignUniform(17)
	f := newFusedSampler(g, IC)
	for round := 0; round < 5; round++ {
		base := uint64(round * 200)
		wantV, wantS := scalarGenerate(g, IC, 17, base, 150)
		gotV, gotS := f.Generate(17, base, 150, nil, nil)
		if !slices.Equal(gotV, wantV) || !slices.Equal(gotS, wantS) {
			t.Fatalf("round %d: reused fused sampler diverged from scalar", round)
		}
	}
}

// TestFusedDegenerateGraphs sweeps the shapes that stress the kernel's
// edge handling: no edges at all, self-loops (present in the CSR but never
// re-added to a sample), isolated vertices mixed with a connected core,
// and batch widths larger than the sample count (B > theta).
func TestFusedDegenerateGraphs(t *testing.T) {
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
		{"isolated", build(10, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 0.8)},
		{"single-edge", build(2, [][2]int{{0, 1}}, 1.0)},
	}
	for _, tc := range cases {
		for _, model := range []Model{IC, LT} {
			g := tc.g
			if model == LT {
				g.NormalizeLT()
			}
			f := newFusedSampler(g, model)
			// count=3 < MaxLanes exercises the B > theta partial batch.
			for _, count := range []int{3, 100} {
				wantV, wantS := scalarGenerate(g, model, 7, 0, count)
				gotV, gotS := f.Generate(7, 0, count, nil, nil)
				if !slices.Equal(gotV, wantV) || !slices.Equal(gotS, wantS) {
					t.Fatalf("%s/%v count=%d: fused != scalar", tc.name, model, count)
				}
			}
		}
	}
}

// TestFusedPassesCountLevels pins what Passes means on IC: BFS levels,
// not dequeued vertices. On a directed path of d layers of width w (every
// vertex of a layer feeds every vertex of the next) with p = 1, a lane
// rooted in layer L holds 1 + L*w vertices over L+1 levels — d levels from
// the last layer — alone or sharing a batch with 63 other lanes.
func TestFusedPassesCountLevels(t *testing.T) {
	const d = 6
	for _, w := range []int{1, 3} {
		b := graph.NewBuilder(d * w)
		for l := 0; l+1 < d; l++ {
			for i := 0; i < w; i++ {
				for j := 0; j < w; j++ {
					b.Add(graph.Vertex(l*w+i), graph.Vertex((l+1)*w+j), 1)
				}
			}
		}
		g := b.Build()
		g.AssignConstant(1)
		f := newFusedSampler(g, IC)
		var want, entries int64
		for id := uint64(0); id < MaxLanes; id++ {
			_, sizes := f.Generate(5, id, 1, nil, nil)
			layer := int64(sizes[0]-1) / int64(w)
			if got := f.TakeStats().Passes; got != layer+1 {
				t.Fatalf("w=%d sample %d: %d vertices over %d passes, want %d levels", w, id, sizes[0], got, layer+1)
			}
			want += layer + 1
			entries += int64(sizes[0])
		}
		f.Generate(5, 0, MaxLanes, nil, nil)
		if got := f.TakeStats().Passes; got != want {
			t.Fatalf("w=%d: a full batch reports %d passes, its lanes %d levels", w, got, want)
		}
		if w > 1 && want >= entries {
			t.Fatalf("w=%d: %d levels for %d entries; a wide path must expand fewer levels than vertices", w, want, entries)
		}
	}
}

// TestFusedStats pins the telemetry contract: batches and root coins are
// exact, occupancy is a valid fraction, and TakeStats drains.
func TestFusedStats(t *testing.T) {
	g := randomGraph(21, 80, 800)
	g.AssignUniform(21)
	f := newFusedSampler(g, IC)
	const count = 200
	f.Generate(21, 0, count, nil, nil)
	st := f.TakeStats()
	wantBatches := int64((count + MaxLanes - 1) / MaxLanes)
	if st.Batches != wantBatches {
		t.Fatalf("Batches = %d, want %d", st.Batches, wantBatches)
	}
	if st.Passes < wantBatches {
		t.Fatalf("Passes = %d, want >= %d (one per non-empty batch)", st.Passes, wantBatches)
	}
	// Every sample costs one root draw, and a connected graph draws edge
	// coins on top.
	if st.Coins <= count {
		t.Fatalf("Coins = %d: want > one root draw per sample (%d)", st.Coins, count)
	}
	if occ := st.Occupancy(); occ <= 0 || occ > 1 {
		t.Fatalf("Occupancy = %v, want in (0, 1]", occ)
	}
	if st.ActiveLanes > st.LaneSlots {
		t.Fatalf("ActiveLanes %d > LaneSlots %d", st.ActiveLanes, st.LaneSlots)
	}
	if again := f.TakeStats(); again != (FusedStats{}) {
		t.Fatalf("TakeStats did not reset: %+v", again)
	}
	var sum FusedStats
	sum.Add(st)
	sum.Add(st)
	if sum.Passes != 2*st.Passes || sum.Coins != 2*st.Coins {
		t.Fatalf("Add did not accumulate: %+v", sum)
	}
	if (FusedStats{}).Occupancy() != 0 {
		t.Fatal("zero-pass occupancy must be 0")
	}
}

// TestFusedGenerateIDsMatchesScalar: GenerateIDs over an arbitrary id list
// (unsorted, repeated, gapped) must emit, for each id in list order, the
// exact sample the scalar kernel draws after Reseed(seed, id) — at every
// batch shape from empty to several batches, and on every IC scan class
// (uniform duplicate-free, uniform with duplicate sources, per-edge
// thresholds) plus LT. One sampler serves every length, so stale lane
// state between calls would show too.
func TestFusedGenerateIDsMatchesScalar(t *testing.T) {
	// simpleGraph drops randomGraph's parallel edges, so every in-list is
	// duplicate-free and a constant weight makes the uniform class.
	simpleGraph := func(seed uint64, n, m int) *graph.Graph {
		r := rng.New(rng.NewLCG(seed))
		b := graph.NewBuilder(n)
		seen := map[[2]int]bool{}
		for i := 0; i < m; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v || seen[[2]int{u, v}] {
				continue
			}
			seen[[2]int{u, v}] = true
			b.Add(graph.Vertex(u), graph.Vertex(v), 0)
		}
		return b.Build()
	}
	cases := []struct {
		name  string
		model Model
		g     func() *graph.Graph
		class func(uni uint32) bool // an in-list class the case must contain
	}{
		{"IC-uniform", IC, func() *graph.Graph {
			g := simpleGraph(3, 150, 1200)
			g.AssignConstant(0.2)
			return g
		}, func(uni uint32) bool { return uni&dupMark == 0 && uni != 0 }},
		{"IC-dup", IC, func() *graph.Graph {
			g := randomGraph(5, 120, 1500)
			g.AssignConstant(0.15)
			return g
		}, func(uni uint32) bool { return uni != nonUniform && uni&dupMark != 0 }},
		{"IC-general", IC, func() *graph.Graph {
			g := randomGraph(9, 200, 1800)
			g.AssignUniform(9)
			return g
		}, func(uni uint32) bool { return uni == nonUniform }},
		{"LT", LT, func() *graph.Graph {
			g := randomGraph(11, 200, 2000)
			g.AssignUniform(11)
			g.NormalizeLT()
			return g
		}, nil},
	}
	const seed = 77
	for _, tc := range cases {
		g := tc.g()
		if tc.class != nil && !slices.ContainsFunc(NewFusedShared(g, tc.model).uniform, tc.class) {
			t.Fatalf("%s: graph has no in-list of the intended scan class", tc.name)
		}
		f := newFusedSampler(g, tc.model)
		s := NewSampler(g, tc.model)
		gen := rng.NewSplitMix64(0)
		r := rng.New(gen)
		for _, length := range []int{0, 1, 63, 64, 65, 130} {
			// Gapped (stride 5 plus an offset), unsorted (random draws),
			// repeated (last == first, plus birthday collisions), and one
			// id far beyond any contiguous range.
			pick := rng.New(rng.NewLCG(uint64(length) + 1))
			ids := make([]int32, length)
			for i := range ids {
				ids[i] = int32(3 + 5*pick.Intn(2*length+1))
			}
			if length > 1 {
				ids[length-1] = ids[0]
				ids[length/2] = 1 << 30
			}
			var wantV []graph.Vertex
			var wantS []int32
			for _, id := range ids {
				gen.Reseed(seed, uint64(id))
				root := graph.Vertex(r.Intn(g.NumVertices()))
				before := len(wantV)
				wantV = s.GenerateRR(r, root, wantV)
				wantS = append(wantS, int32(len(wantV)-before))
			}
			gotV, gotS := f.GenerateIDs(seed, ids, nil, nil)
			if !slices.Equal(gotV, wantV) || !slices.Equal(gotS, wantS) {
				t.Fatalf("%s len=%d: GenerateIDs != scalar after Reseed(seed, id)", tc.name, length)
			}
		}
	}
}
