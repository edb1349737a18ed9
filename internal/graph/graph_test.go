package graph

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"influmax/internal/rng"
)

// diamond builds the 4-vertex graph 0->1, 0->2, 1->3, 2->3 with the given
// weight everywhere.
func diamond(w float32) *Graph {
	return FromEdges(4, []Edge{{0, 1, w}, {0, 2, w}, {1, 3, w}, {2, 3, w}})
}

func TestBuildDegrees(t *testing.T) {
	g := diamond(0.5)
	wantOut := []int{2, 1, 1, 0}
	wantIn := []int{0, 1, 1, 2}
	for v := 0; v < 4; v++ {
		if d := g.OutDegree(Vertex(v)); d != wantOut[v] {
			t.Errorf("OutDegree(%d) = %d, want %d", v, d, wantOut[v])
		}
		if d := g.InDegree(Vertex(v)); d != wantIn[v] {
			t.Errorf("InDegree(%d) = %d, want %d", v, d, wantIn[v])
		}
	}
	if g.NumEdges() != 4 || g.NumVertices() != 4 {
		t.Errorf("size = (%d, %d), want (4, 4)", g.NumVertices(), g.NumEdges())
	}
}

func TestOutInConsistency(t *testing.T) {
	// Every out-edge must appear exactly once as an in-edge with the same
	// weight, on random graphs.
	check := func(seed uint64) bool {
		r := rng.New(rng.NewLCG(seed))
		n := 2 + r.Intn(30)
		m := r.Intn(100)
		b := NewBuilder(n)
		for i := 0; i < m; i++ {
			b.Add(Vertex(r.Intn(n)), Vertex(r.Intn(n)), r.Float32())
		}
		g := b.Build()
		type ew struct {
			u, v Vertex
			w    float32
		}
		counts := make(map[ew]int)
		for u := 0; u < n; u++ {
			dsts, ws := g.OutNeighbors(Vertex(u))
			for i := range dsts {
				counts[ew{Vertex(u), dsts[i], ws[i]}]++
			}
		}
		for v := 0; v < n; v++ {
			srcs, ws := g.InNeighbors(Vertex(v))
			for i := range srcs {
				counts[ew{srcs[i], Vertex(v), ws[i]}]--
			}
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelEdgesPreserved(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1, 0.1}, {0, 1, 0.2}, {0, 1, 0.3}})
	if g.OutDegree(0) != 3 || g.InDegree(1) != 3 {
		t.Fatalf("parallel edges collapsed: out=%d in=%d", g.OutDegree(0), g.InDegree(1))
	}
}

func TestSelfLoopPreserved(t *testing.T) {
	g := FromEdges(1, []Edge{{0, 0, 0.5}})
	if g.OutDegree(0) != 1 || g.InDegree(0) != 1 {
		t.Fatal("self loop lost")
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add out-of-range endpoint did not panic")
		}
	}()
	NewBuilder(2).Add(0, 2, 0.5)
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph not empty")
	}
	s := g.ComputeStats()
	if s.AvgDegree != 0 {
		t.Fatal("empty graph avg degree != 0")
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := FromEdges(5, []Edge{{1, 3, 1}})
	for _, v := range []Vertex{0, 2, 4} {
		if g.OutDegree(v) != 0 || g.InDegree(v) != 0 {
			t.Errorf("vertex %d should be isolated", v)
		}
	}
}

func TestTranspose(t *testing.T) {
	g := diamond(0.25)
	tr := g.Transpose()
	if tr.OutDegree(3) != 2 || tr.InDegree(0) != 2 {
		t.Fatal("transpose degrees wrong")
	}
	srcs, _ := tr.OutNeighbors(3)
	if len(srcs) != 2 {
		t.Fatal("transpose adjacency wrong")
	}
	if tr.NumEdges() != g.NumEdges() {
		t.Fatal("transpose changed edge count")
	}
}

func TestComputeStats(t *testing.T) {
	g := diamond(1)
	s := g.ComputeStats()
	if s.MaxDegree != 2 || s.MaxInDeg != 2 {
		t.Errorf("max degrees = (%d, %d), want (2, 2)", s.MaxDegree, s.MaxInDeg)
	}
	if s.AvgDegree != 1.0 {
		t.Errorf("avg degree = %v, want 1.0", s.AvgDegree)
	}
}

func TestAssignConstant(t *testing.T) {
	g := diamond(0)
	g.AssignConstant(0.1)
	for v := 0; v < 4; v++ {
		_, ws := g.OutNeighbors(Vertex(v))
		for _, w := range ws {
			if w != 0.1 {
				t.Fatalf("out weight = %v, want 0.1", w)
			}
		}
		_, ws = g.InNeighbors(Vertex(v))
		for _, w := range ws {
			if w != 0.1 {
				t.Fatalf("in weight = %v, want 0.1", w)
			}
		}
	}
}

func TestAssignConstantPanicsOutOfRange(t *testing.T) {
	for _, p := range []float32{1.5, float32(math.NaN())} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AssignConstant(%v) did not panic", p)
				}
			}()
			diamond(0).AssignConstant(p)
		}()
	}
}

func TestAssignUniformDeterministicAndConsistent(t *testing.T) {
	g1, g2 := diamond(0), diamond(0)
	g1.AssignUniform(7)
	g2.AssignUniform(7)
	for v := 0; v < 4; v++ {
		_, w1 := g1.InNeighbors(Vertex(v))
		_, w2 := g2.InNeighbors(Vertex(v))
		for i := range w1 {
			if w1[i] != w2[i] {
				t.Fatal("AssignUniform not deterministic")
			}
			if w1[i] < 0 || w1[i] >= 1 {
				t.Fatalf("weight %v out of [0,1)", w1[i])
			}
		}
	}
	// Out view must mirror in view.
	for u := 0; u < 4; u++ {
		dsts, ws := g1.OutNeighbors(Vertex(u))
		for i, v := range dsts {
			srcs, iws := g1.InNeighbors(v)
			found := false
			for j, s := range srcs {
				if s == Vertex(u) && iws[j] == ws[i] {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d weight %v missing from in view", u, v, ws[i])
			}
		}
	}
}

func TestAssignWeightedCascade(t *testing.T) {
	g := diamond(0)
	g.AssignWeightedCascade()
	_, ws := g.InNeighbors(3) // indegree 2 -> 0.5 each
	for _, w := range ws {
		if w != 0.5 {
			t.Fatalf("WC weight = %v, want 0.5", w)
		}
	}
	_, ws = g.InNeighbors(1) // indegree 1 -> 1.0
	if ws[0] != 1.0 {
		t.Fatalf("WC weight = %v, want 1.0", ws[0])
	}
}

func TestNormalizeLT(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(rng.NewLCG(seed))
		n := 2 + r.Intn(20)
		b := NewBuilder(n)
		for i := 0; i < 5*n; i++ {
			b.Add(Vertex(r.Intn(n)), Vertex(r.Intn(n)), r.Float32())
		}
		g := b.Build()
		g.NormalizeLT()
		return g.MaxInWeightSum() <= 1.0+1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeLTPreservesRatios(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1, 0.9}, {0, 1, 2.7}})
	g.NormalizeLT()
	_, ws := g.InNeighbors(1)
	if math.Abs(float64(ws[1]/ws[0])-3.0) > 1e-5 {
		t.Fatalf("ratio not preserved: %v vs %v", ws[0], ws[1])
	}
	if s := g.InWeightSum(1); math.Abs(s-1.0) > 1e-6 {
		t.Fatalf("sum = %v, want 1", s)
	}
}

func TestNormalizeLTLeavesSmallSums(t *testing.T) {
	g := FromEdges(2, []Edge{{0, 1, 0.3}})
	g.NormalizeLT()
	_, ws := g.InNeighbors(1)
	if ws[0] != 0.3 {
		t.Fatalf("sub-unit sum was rescaled: %v", ws[0])
	}
}

func TestParseEdgeList(t *testing.T) {
	in := `# A comment
% another comment
10 20
20 30 0.5

30 10 1.0
`
	g, orig, err := ParseEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed (%d, %d), want (3, 3)", g.NumVertices(), g.NumEdges())
	}
	want := []int64{10, 20, 30}
	for i, id := range orig {
		if id != want[i] {
			t.Fatalf("orig ids = %v, want %v", orig, want)
		}
	}
	// Edge 20->30 carries weight 0.5; relabeled 1->2.
	dsts, ws := g.OutNeighbors(1)
	if len(dsts) != 1 || dsts[0] != 2 || ws[0] != 0.5 {
		t.Fatalf("edge 1->2 = (%v, %v)", dsts, ws)
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	cases := []string{"abc def", "1", "1 xyz", "-1 2", "1 2 notanumber"}
	for _, in := range cases {
		if _, _, err := ParseEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("ParseEdgeList(%q) succeeded, want error", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := diamond(0.25)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ParseEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size mismatch: (%d, %d)", g2.NumVertices(), g2.NumEdges())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := diamond(0.75)
	g.AssignUniform(3)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 4 || g2.NumEdges() != 4 {
		t.Fatal("binary round trip lost structure")
	}
	for v := 0; v < 4; v++ {
		_, w1 := g.InNeighbors(Vertex(v))
		_, w2 := g2.InNeighbors(Vertex(v))
		for i := range w1 {
			if w1[i] != w2[i] {
				t.Fatal("binary round trip lost weights")
			}
		}
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("ReadBinary accepted garbage")
	}
}

func TestInWeightSum(t *testing.T) {
	g := diamond(0.25)
	if s := g.InWeightSum(3); math.Abs(s-0.5) > 1e-9 {
		t.Fatalf("InWeightSum(3) = %v, want 0.5", s)
	}
	if s := g.InWeightSum(0); s != 0 {
		t.Fatalf("InWeightSum(0) = %v, want 0", s)
	}
}

func TestMemoryBytesPositive(t *testing.T) {
	if diamond(1).MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes <= 0 for non-empty graph")
	}
}
