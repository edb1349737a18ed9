package diffuse

import (
	"math"
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
		// LT as the benchmark runs it: every in-list is uniform, so walks
		// take pickUniform.
		{"LT-WC", LT, func(g *graph.Graph, seed uint64) { g.AssignWeightedCascade(); g.NormalizeLT() }},
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

// TestFusedLTInLists pins the LT pick on the in-list shapes at the edge of
// uniformLT's class: a hub far longer than any walk's random graph gives,
// uniform lists of zeros and of a weight whose sum passes 1, and lists
// graph.Builder accepts with a negative, NaN or infinite weight, which
// must stay on the running-sum scan. Each graph's vertex 0 holds the list
// under test; the others feed walks into it and out of it. No
// NormalizeLT: the weights are walked as given.
func TestFusedLTInLists(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	// star builds n vertices whose in-edges into 0 carry ws in order (from
	// sources 1, 2, ...), plus 0 -> v and v -> v+1 at weight 0.4.
	star := func(n int, ws ...float32) *graph.Graph {
		b := graph.NewBuilder(n)
		for i, w := range ws {
			b.Add(graph.Vertex(1+i%(n-1)), 0, w)
		}
		for v := 1; v < n; v++ {
			b.Add(0, graph.Vertex(v), 0.4)
			if v+1 < n {
				b.Add(graph.Vertex(v), graph.Vertex(v+1), 0.4)
			}
		}
		return b.Build()
	}
	repeat := func(d int, w float32) []float32 {
		ws := make([]float32, d)
		for i := range ws {
			ws[i] = w
		}
		return ws
	}
	hub := star(2501, repeat(2500, 1)...)
	hub.AssignWeightedCascade()
	hub.NormalizeLT()
	cases := []struct {
		name    string
		g       *graph.Graph
		uniform bool // vertex 0's class
	}{
		{"hub-2500", hub, true},
		{"zeros", star(6, repeat(5, 0)...), false},
		{"sum-over-1", star(6, repeat(5, 0.3)...), true},
		{"parallel-sum-over-1", star(3, repeat(7, 0.75)...), true},
		{"negative", star(6, -0.5, 0.7, 0.4), false},
		{"uniform-negative", star(6, repeat(4, -0.2)...), false},
		{"nan", star(6, nan, 0.5), false},
		{"uniform-nan", star(6, repeat(3, nan)...), false},
		{"uniform-inf", star(6, repeat(3, inf)...), false},
	}
	for _, tc := range cases {
		if got := NewFusedShared(tc.g, LT).ltUniform[0]; got != tc.uniform {
			t.Fatalf("%s: uniformLT(vertex 0) = %v, want %v", tc.name, got, tc.uniform)
		}
		f := newFusedSampler(tc.g, LT)
		for _, count := range []int{3, 100, 3 * MaxLanes} {
			wantV, wantS := scalarGenerate(tc.g, LT, 7, 0, count)
			gotV, gotS := f.Generate(7, 0, count, nil, nil)
			if !slices.Equal(gotV, wantV) || !slices.Equal(gotS, wantS) {
				t.Fatalf("%s count=%d: fused != scalar", tc.name, count)
			}
		}
	}
}

// scanPick is the scalar walk's running-sum selection over d copies of
// w: the index of the picked in-edge, or d when the walk dies.
func scanPick(t float64, w float32, d int) int {
	cum := 0.0
	for i := 0; i < d; i++ {
		cum += float64(w)
		if t < cum {
			return i
		}
	}
	return d
}

// FuzzUniformPickMatchesScan checks pickUniform against the running sum
// it replaces, for any finite float32 w > 0 and d in [1, 2^16]. When at
// is 0 the coin is t = (k>>11)·2^-53, any value rng.Rand.Float64 yields;
// otherwise it is j·w (at 1) or its float64 neighbour below (2) or above
// (3), for j = k mod (d+1), where the quotient t/w rounds across an
// integer and the fix-up loops have to settle the index. Those points
// may be finer than the coin grid when w is small, which only makes the
// check stricter.
func FuzzUniformPickMatchesScan(f *testing.F) {
	for _, w := range []float32{1, 0.5, 1.0 / 3, 0.1, 1.0 / 7, 1.0 / 11, 1.0 / 2000, 0.3, 0x1p-149} {
		for _, j := range []uint64{1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 29, 1999} {
			for at := uint8(1); at <= 3; at++ {
				f.Add(math.Float32bits(w), uint32(2000), j, at)
			}
		}
		f.Add(math.Float32bits(w), uint32(16), uint64(0x9e3779b97f4a7c15), uint8(0))
	}
	f.Fuzz(func(t *testing.T, wBits, dRaw uint32, k uint64, at uint8) {
		w := math.Float32frombits(wBits)
		if !(w > 0) || math.IsInf(float64(w), 1) {
			return // not a uniformLT weight
		}
		d := int(dRaw%(1<<16)) + 1
		c := float64(k>>11) * (1.0 / (1 << 53))
		if at%4 != 0 {
			c = float64(k%uint64(d+1)) * float64(w)
			switch at % 4 {
			case 2:
				c = math.Nextafter(c, -1)
			case 3:
				c = math.Nextafter(c, 2)
			}
			if !(c >= 0 && c < 1) {
				return // not a coin value
			}
		}
		if got, want := pickUniform(c, float64(w), d), scanPick(c, w, d); got != want {
			t.Fatalf("w=%g d=%d t=%v: pickUniform = %d, running sum = %d", w, d, c, got, want)
		}
	})
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
