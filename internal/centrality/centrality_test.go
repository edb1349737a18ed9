package centrality

import (
	"math"
	"slices"
	"testing"

	"influmax/internal/graph"
	"influmax/internal/rng"
)

func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.Add(graph.Vertex(i), graph.Vertex(i+1), 1)
	}
	return b.Build()
}

func TestDegreeScores(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 2, W: 1}, {Src: 3, Dst: 0, W: 1}})
	td := TotalDegree(g)
	wantT := []float64{3, 1, 1, 1}
	if !slices.Equal(td, wantT) {
		t.Fatalf("TotalDegree = %v, want %v", td, wantT)
	}
}

func TestBetweennessDirectedPath(t *testing.T) {
	// Path 0->1->2->3->4: betweenness of interior vertex i counts the
	// source-target pairs whose unique shortest path passes through it:
	// vertex 1: pairs (0,2),(0,3),(0,4) = 3; vertex 2: (0,3),(0,4),(1,3),
	// (1,4) = 4; vertex 3: (0,4),(1,4),(2,4) = 3.
	g := path(5)
	bc := Betweenness(g, 2)
	want := []float64{0, 3, 4, 3, 0}
	for v := range want {
		if math.Abs(bc[v]-want[v]) > 1e-9 {
			t.Fatalf("betweenness = %v, want %v", bc, want)
		}
	}
}

func TestBetweennessSplitPaths(t *testing.T) {
	// Diamond 0->1->3, 0->2->3: vertices 1 and 2 each carry half of the
	// single (0,3) pair.
	g := graph.FromEdges(4, []graph.Edge{
		{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 2, W: 1},
		{Src: 1, Dst: 3, W: 1}, {Src: 2, Dst: 3, W: 1},
	})
	bc := Betweenness(g, 1)
	if math.Abs(bc[1]-0.5) > 1e-9 || math.Abs(bc[2]-0.5) > 1e-9 {
		t.Fatalf("diamond betweenness = %v, want 0.5 at 1 and 2", bc)
	}
	if bc[0] != 0 || bc[3] != 0 {
		t.Fatalf("endpoints should have zero betweenness: %v", bc)
	}
}

func TestBetweennessWorkerInvariance(t *testing.T) {
	r := rng.New(rng.NewLCG(5))
	b := graph.NewBuilder(40)
	for i := 0; i < 200; i++ {
		u, v := r.Intn(40), r.Intn(40)
		if u != v {
			b.Add(graph.Vertex(u), graph.Vertex(v), 1)
		}
	}
	g := b.Build()
	b1 := Betweenness(g, 1)
	b4 := Betweenness(g, 4)
	for v := range b1 {
		if math.Abs(b1[v]-b4[v]) > 1e-9 {
			t.Fatalf("worker count changed betweenness at %d: %v vs %v", v, b1[v], b4[v])
		}
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{1, 9, 3, 9, 0}
	top := TopK(scores, 3)
	want := []graph.Vertex{1, 3, 2} // tie between 1 and 3 -> smaller first
	if !slices.Equal(top, want) {
		t.Fatalf("TopK = %v, want %v", top, want)
	}
	if got := TopK(scores, 100); len(got) != 5 {
		t.Fatalf("TopK with k>n returned %d", len(got))
	}
}

func TestBetweennessEmptyAndSingleton(t *testing.T) {
	g := graph.NewBuilder(1).Build()
	bc := Betweenness(g, 2)
	if len(bc) != 1 || bc[0] != 0 {
		t.Fatalf("singleton betweenness = %v", bc)
	}
}
