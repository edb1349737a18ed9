package diffuse

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"influmax/internal/graph"
	"influmax/internal/rng"
)

func line(n int, w float32) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.Add(graph.Vertex(i), graph.Vertex(i+1), w)
	}
	return b.Build()
}

func randomGraph(seed uint64, n, m int) *graph.Graph {
	r := rng.New(rng.NewLCG(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		b.Add(graph.Vertex(u), graph.Vertex(v), r.Float32())
	}
	return b.Build()
}

func TestModelString(t *testing.T) {
	if IC.String() != "IC" || LT.String() != "LT" {
		t.Fatal("model names wrong")
	}
	if Model(9).String() == "" {
		t.Fatal("unknown model has empty name")
	}
}

func TestParseModel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Model
		ok   bool
	}{{"IC", IC, true}, {"ic", IC, true}, {" lt ", LT, true}, {"LT", LT, true}, {"bogus", IC, false}} {
		got, err := ParseModel(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseModel(%q) = (%v, %v)", tc.in, got, err)
		}
	}
}

func TestGenerateRRContainsRootSortedUnique(t *testing.T) {
	g := randomGraph(1, 50, 400)
	g.NormalizeLT()
	for _, model := range []Model{IC, LT} {
		s := NewSampler(g, model)
		r := rng.New(rng.NewLCG(99))
		for trial := 0; trial < 200; trial++ {
			root := graph.Vertex(r.Intn(50))
			set := s.GenerateRR(r, root, nil)
			if !slices.Contains(set, root) {
				t.Fatalf("%v: RRR set misses its root", model)
			}
			if !slices.IsSorted(set) {
				t.Fatalf("%v: RRR set not sorted: %v", model, set)
			}
			for i := 1; i < len(set); i++ {
				if set[i] == set[i-1] {
					t.Fatalf("%v: duplicate vertex %d in RRR set", model, set[i])
				}
			}
		}
	}
}

func TestGenerateRRDeterministicWeightOne(t *testing.T) {
	// IC with all weights 1: the RRR set of v is exactly the set of
	// vertices with a directed path to v.
	g := line(6, 1.0)
	s := NewSampler(g, IC)
	r := rng.New(rng.NewLCG(1))
	set := s.GenerateRR(r, 4, nil)
	want := []graph.Vertex{0, 1, 2, 3, 4}
	if !slices.Equal(set, want) {
		t.Fatalf("RRR(4) = %v, want %v", set, want)
	}
}

func TestGenerateRRWeightZero(t *testing.T) {
	g := line(6, 0.0)
	for _, model := range []Model{IC, LT} {
		s := NewSampler(g, model)
		r := rng.New(rng.NewLCG(1))
		set := s.GenerateRR(r, 3, nil)
		if len(set) != 1 || set[0] != 3 {
			t.Fatalf("%v: RRR with zero weights = %v, want [3]", model, set)
		}
	}
}

func TestGenerateRRAppendsToOut(t *testing.T) {
	g := line(4, 1.0)
	s := NewSampler(g, IC)
	r := rng.New(rng.NewLCG(1))
	buf := make([]graph.Vertex, 0, 16)
	set := s.GenerateRR(r, 2, buf)
	if len(set) != 3 {
		t.Fatalf("unexpected set %v", set)
	}
}

func TestLTWalkIsPathLike(t *testing.T) {
	// In LT, each step picks at most one in-edge, so the RRR set size is
	// bounded by the walk length and the walk stops at a revisit: the set
	// can never exceed the vertex count and is typically tiny.
	g := randomGraph(3, 30, 300)
	g.NormalizeLT()
	s := NewSampler(g, LT)
	r := rng.New(rng.NewLCG(7))
	for trial := 0; trial < 500; trial++ {
		set := s.GenerateRR(r, graph.Vertex(r.Intn(30)), nil)
		if len(set) > 30 {
			t.Fatalf("LT RRR set larger than n: %d", len(set))
		}
	}
}

func TestLTSmallerThanICOnAverage(t *testing.T) {
	// The paper: "The LT model tends to produce very small RRR sets (when
	// compared to the IC model)".
	// As in the paper's setup, IC runs on the raw uniform weights while LT
	// runs on the renormalized ones.
	gic := randomGraph(4, 200, 3000)
	gic.AssignUniform(11)
	glt := randomGraph(4, 200, 3000)
	glt.AssignUniform(11)
	glt.NormalizeLT()
	r := rng.New(rng.NewLCG(5))
	sic, slt := NewSampler(gic, IC), NewSampler(glt, LT)
	var icTotal, ltTotal int
	for trial := 0; trial < 400; trial++ {
		root := graph.Vertex(r.Intn(200))
		icTotal += len(sic.GenerateRR(r, root, nil))
		ltTotal += len(slt.GenerateRR(r, root, nil))
	}
	if ltTotal >= icTotal {
		t.Fatalf("LT sets (total %d) not smaller than IC sets (total %d)", ltTotal, icTotal)
	}
}

func TestCascadeSeedsCounted(t *testing.T) {
	g := line(5, 0.0)
	for _, model := range []Model{IC, LT} {
		sim := newSimulator(g, model)
		r := rng.New(rng.NewLCG(1))
		if got := sim.cascade(r, []graph.Vertex{0, 2, 4}); got != 3 {
			t.Fatalf("%v: spread with zero weights = %d, want 3", model, got)
		}
	}
}

func TestCascadeDuplicateSeeds(t *testing.T) {
	g := line(5, 0.0)
	sim := newSimulator(g, IC)
	r := rng.New(rng.NewLCG(1))
	if got := sim.cascade(r, []graph.Vertex{1, 1, 1}); got != 1 {
		t.Fatalf("duplicate seeds counted: %d", got)
	}
}

func TestCascadeICWeightOneReachesAll(t *testing.T) {
	g := line(10, 1.0)
	sim := newSimulator(g, IC)
	r := rng.New(rng.NewLCG(1))
	if got := sim.cascade(r, []graph.Vertex{0}); got != 10 {
		t.Fatalf("full-weight IC cascade = %d, want 10", got)
	}
	if got := sim.cascade(r, []graph.Vertex{5}); got != 5 {
		t.Fatalf("full-weight IC cascade from middle = %d, want 5", got)
	}
}

func TestCascadeLTWeightOneChainActivates(t *testing.T) {
	// With a single in-edge of weight 1.0 and thresholds drawn from [0,1),
	// every touched vertex activates (1.0 >= threshold always).
	g := line(10, 1.0)
	sim := newSimulator(g, LT)
	r := rng.New(rng.NewLCG(1))
	if got := sim.cascade(r, []graph.Vertex{0}); got != 10 {
		t.Fatalf("full-weight LT cascade = %d, want 10", got)
	}
}

func TestCascadeEpochReuse(t *testing.T) {
	// Back-to-back trials must not leak activation state.
	g := line(8, 1.0)
	sim := newSimulator(g, IC)
	r := rng.New(rng.NewLCG(1))
	for i := 0; i < 100; i++ {
		if got := sim.cascade(r, []graph.Vertex{4}); got != 4 {
			t.Fatalf("trial %d: spread = %d, want 4", i, got)
		}
	}
}

func TestEstimateSpreadDeterministicAcrossWorkers(t *testing.T) {
	g := randomGraph(6, 100, 800)
	seeds := []graph.Vertex{0, 7, 42}
	m1, _ := EstimateSpread(g, IC, seeds, 500, 1, 123)
	m4, _ := EstimateSpread(g, IC, seeds, 500, 4, 123)
	if m1 != m4 {
		t.Fatalf("spread estimate depends on worker count: %v vs %v", m1, m4)
	}
}

func TestEstimateSpreadZeroTrials(t *testing.T) {
	g := line(3, 1)
	mean, se := EstimateSpread(g, IC, []graph.Vertex{0}, 0, 2, 1)
	if mean != 0 || se != 0 {
		t.Fatal("zero trials should return zeros")
	}
}

func TestEstimateSpreadExactChain(t *testing.T) {
	// On the weight-1 chain, spread from vertex 0 is exactly n.
	g := line(7, 1.0)
	mean, se := EstimateSpread(g, IC, []graph.Vertex{0}, 50, 3, 9)
	if mean != 7 || se != 0 {
		t.Fatalf("deterministic spread = (%v, %v), want (7, 0)", mean, se)
	}
}

func TestEstimateSpreadProbabilityHalf(t *testing.T) {
	// Two vertices, one edge with p = 0.5: E[|I({0})|] = 1.5.
	g := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1, W: 0.5}})
	mean, _ := EstimateSpread(g, IC, []graph.Vertex{0}, 20000, 4, 77)
	if math.Abs(mean-1.5) > 0.03 {
		t.Fatalf("spread = %v, want ~1.5", mean)
	}
}

// The RIS identity (Borgs et al.): E[|I({u})|] = n * Pr[u in RR(V)], where
// the RRR root V is uniform. This ties the reverse kernels to the forward
// kernels and is the correctness foundation of the whole method; verify it
// statistically for both models.
func TestReverseForwardIdentity(t *testing.T) {
	g := randomGraph(8, 40, 200)
	g.AssignUniform(21)
	g.NormalizeLT()
	n := g.NumVertices()
	for _, model := range []Model{IC, LT} {
		const samples = 60000
		s := NewSampler(g, model)
		r := rng.New(rng.NewLCG(1234))
		contains := make([]int, n)
		for i := 0; i < samples; i++ {
			root := graph.Vertex(r.Intn(n))
			for _, u := range s.GenerateRR(r, root, nil) {
				contains[u]++
			}
		}
		// Check a handful of vertices including high-degree ones.
		for _, u := range []graph.Vertex{0, 5, 13, 27, 39} {
			risEst := float64(n) * float64(contains[u]) / samples
			fwd, se := EstimateSpread(g, model, []graph.Vertex{u}, 60000, 0, 4321)
			tol := 4*se + 0.12 // martingale noise on both sides
			if math.Abs(risEst-fwd) > tol {
				t.Errorf("%v: vertex %d: RIS estimate %.3f vs forward %.3f (tol %.3f)",
					model, u, risEst, fwd, tol)
			}
		}
	}
}

func TestCRNMatchesOrdinarySpread(t *testing.T) {
	// CRN and traversal-order cascades are distributionally identical for
	// a fixed seed set: their Monte Carlo means must agree statistically.
	g := randomGraph(20, 80, 600)
	g.NormalizeLT()
	for _, model := range []Model{IC, LT} {
		seeds := []graph.Vertex{3, 17, 42}
		crn, se1 := EstimateSpreadCRN(g, model, seeds, 30000, 0, 5)
		ord, se2 := EstimateSpread(g, model, seeds, 30000, 0, 6)
		if math.Abs(crn-ord) > 4*(se1+se2)+0.1 {
			t.Errorf("%v: CRN %.3f vs ordinary %.3f (se %.3f/%.3f)", model, crn, ord, se1, se2)
		}
	}
}

func TestCRNSubmodularAndMonotone(t *testing.T) {
	// Per fixed trial set, spread must be monotone (adding a seed never
	// hurts) and submodular (gains shrink with context) — exactly, not
	// statistically.
	g := randomGraph(21, 50, 350)
	g.NormalizeLT()
	for _, model := range []Model{IC, LT} {
		const trials = 40
		spread := func(s []graph.Vertex) float64 {
			m, _ := EstimateSpreadCRN(g, model, s, trials, 1, 9)
			return m
		}
		base := []graph.Vertex{5, 12}
		bigger := []graph.Vertex{5, 12, 30}
		for v := graph.Vertex(0); v < 50; v += 7 {
			sA := spread(append([]graph.Vertex{v}, base...))
			sB := spread(append([]graph.Vertex{v}, bigger...))
			gA := sA - spread(base)
			gB := sB - spread(bigger)
			if gA < -1e-9 {
				t.Fatalf("%v: monotonicity violated at %d: gain %v", model, v, gA)
			}
			if gB > gA+1e-9 {
				t.Fatalf("%v: submodularity violated at %d: %v > %v", model, v, gB, gA)
			}
		}
	}
}

func TestCRNDeterministic(t *testing.T) {
	g := randomGraph(22, 40, 200)
	seeds := []graph.Vertex{1, 2}
	a, _ := EstimateSpreadCRN(g, IC, seeds, 100, 1, 3)
	b, _ := EstimateSpreadCRN(g, IC, seeds, 100, 4, 3)
	if a != b {
		t.Fatalf("CRN estimate depends on workers: %v vs %v", a, b)
	}
}

func TestSpreadCurveMatchesPointEstimates(t *testing.T) {
	// Each prefix of the curve must equal an independent CRN evaluation of
	// that prefix with the same trial keys — exactly, not statistically.
	g := randomGraph(30, 60, 400)
	g.NormalizeLT()
	seeds := []graph.Vertex{3, 41, 7, 19, 55}
	for _, model := range []Model{IC, LT} {
		curve := SpreadCurve(g, model, seeds, 300, 2, 17)
		if len(curve) != len(seeds) {
			t.Fatalf("%v: curve length %d", model, len(curve))
		}
		for i := range seeds {
			point, _ := EstimateSpreadCRN(g, model, seeds[:i+1], 300, 1, 17)
			if math.Abs(curve[i]-point) > 1e-9 {
				t.Fatalf("%v: prefix %d: curve %.6f != point %.6f", model, i+1, curve[i], point)
			}
		}
	}
}

func TestSpreadCurveMonotoneAndDiminishing(t *testing.T) {
	g := randomGraph(31, 80, 500)
	seeds := []graph.Vertex{1, 2, 3, 4, 5, 6, 7, 8}
	curve := SpreadCurve(g, IC, seeds, 500, 0, 3)
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1]-1e-9 {
			t.Fatalf("curve not monotone at %d: %v", i, curve)
		}
	}
}

func TestSpreadCurveDuplicateSeeds(t *testing.T) {
	g := randomGraph(32, 30, 150)
	curve := SpreadCurve(g, IC, []graph.Vertex{5, 5, 5}, 200, 1, 9)
	if curve[0] != curve[1] || curve[1] != curve[2] {
		t.Fatalf("duplicate seeds changed the curve: %v", curve)
	}
}

func TestSpreadCurveEmpty(t *testing.T) {
	g := randomGraph(33, 10, 30)
	if got := SpreadCurve(g, IC, nil, 100, 1, 1); got != nil {
		t.Fatalf("empty seeds gave %v", got)
	}
	if got := SpreadCurve(g, IC, []graph.Vertex{1}, 0, 1, 1); got != nil {
		t.Fatalf("zero trials gave %v", got)
	}
}

func TestGenerateRRArenaAccumulation(t *testing.T) {
	// Regression test: generating into a shared arena must sort only the
	// newly appended region, leaving earlier samples intact.
	g := randomGraph(12, 30, 200)
	s := NewSampler(g, IC)
	r := rng.New(rng.NewLCG(3))
	var arena []graph.Vertex
	var bounds []int
	bounds = append(bounds, 0)
	for i := 0; i < 20; i++ {
		arena = s.GenerateRR(r, graph.Vertex(r.Intn(30)), arena)
		bounds = append(bounds, len(arena))
	}
	for i := 0; i < 20; i++ {
		sample := arena[bounds[i]:bounds[i+1]]
		if !slices.IsSorted(sample) {
			t.Fatalf("sample %d corrupted: %v", i, sample)
		}
		for j := 1; j < len(sample); j++ {
			if sample[j] == sample[j-1] {
				t.Fatalf("sample %d has duplicates after arena reuse", i)
			}
		}
	}
}

func TestSamplerEpochWraparound(t *testing.T) {
	// Force the epoch counter over the uint32 wrap to confirm the visited
	// array resets correctly.
	g := line(4, 1.0)
	s := NewSampler(g, IC)
	s.epoch = ^uint32(0) - 2
	r := rng.New(rng.NewLCG(1))
	for i := 0; i < 6; i++ {
		set := s.GenerateRR(r, 3, nil)
		if len(set) != 4 {
			t.Fatalf("after wrap, RRR = %v", set)
		}
	}
}

func TestGenerateRRQuickInvariants(t *testing.T) {
	check := func(seed uint64, modelBit bool) bool {
		g := randomGraph(seed, 20, 60)
		g.NormalizeLT()
		model := IC
		if modelBit {
			model = LT
		}
		s := NewSampler(g, model)
		r := rng.New(rng.NewLCG(seed ^ 0xabcdef))
		root := graph.Vertex(r.Intn(20))
		set := s.GenerateRR(r, root, nil)
		return len(set) >= 1 && len(set) <= 20 && slices.IsSorted(set) && slices.Contains(set, root)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
