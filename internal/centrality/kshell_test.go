package centrality

import (
	"slices"
	"testing"

	"influmax/internal/graph"
	"influmax/internal/rng"
)

// refKShell is a trivially correct O(n^2 m) peeling used as the oracle.
func refKShell(g *graph.Graph) []int {
	n := g.NumVertices()
	deg := make([]int, n)
	removed := make([]bool, n)
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(graph.Vertex(v)) + g.InDegree(graph.Vertex(v))
	}
	shell := make([]int, n)
	for k := 0; ; k++ {
		done := true
		for {
			peeled := false
			for v := 0; v < n; v++ {
				if !removed[v] && deg[v] <= k {
					removed[v] = true
					shell[v] = k
					peeled = true
					dec := func(u int) {
						if !removed[u] {
							deg[u]--
						}
					}
					dsts, _ := g.OutNeighbors(graph.Vertex(v))
					for _, u := range dsts {
						dec(int(u))
					}
					srcs, _ := g.InNeighbors(graph.Vertex(v))
					for _, u := range srcs {
						dec(int(u))
					}
				}
			}
			if !peeled {
				break
			}
		}
		for v := 0; v < n; v++ {
			if !removed[v] {
				done = false
			}
		}
		if done {
			return shell
		}
	}
}

func TestKShellClique(t *testing.T) {
	// A directed 5-clique: every vertex has total degree 8 -> shell 4
	// under undirected-view peeling (each undirected pair contributes 2).
	b := graph.NewBuilder(5)
	for u := 0; u < 5; u++ {
		for v := 0; v < 5; v++ {
			if u != v {
				b.Add(graph.Vertex(u), graph.Vertex(v), 1)
			}
		}
	}
	g := b.Build()
	shell := kShell(g)
	for v, s := range shell {
		if s != shell[0] {
			t.Fatalf("clique shells differ at %d: %v", v, shell)
		}
	}
	if shell[0] < 4 {
		t.Fatalf("clique shell = %d, want >= 4", shell[0])
	}
}

func TestKShellCoreWithPendants(t *testing.T) {
	// Triangle core (0,1,2) with pendant vertices hanging off it: the
	// pendants must land in a strictly lower shell than the core.
	b := graph.NewBuilder(6)
	b.Add(0, 1, 1)
	b.Add(1, 2, 1)
	b.Add(2, 0, 1)
	b.Add(3, 0, 1) // pendants
	b.Add(4, 1, 1)
	b.Add(5, 2, 1)
	g := b.Build()
	shell := kShell(g)
	for _, pendant := range []int{3, 4, 5} {
		if shell[pendant] >= shell[0] {
			t.Fatalf("pendant %d shell %d not below core shell %d", pendant, shell[pendant], shell[0])
		}
	}
}

func TestKShellMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		r := rng.New(rng.NewLCG(seed))
		n := 30 + r.Intn(30)
		b := graph.NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				b.Add(graph.Vertex(u), graph.Vertex(v), 1)
			}
		}
		g := b.Build()
		got := kShell(g)
		want := refKShell(g)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: kShell = %v, want %v", seed, got, want)
		}
	}
}

func TestKShellIsolatedVertices(t *testing.T) {
	g := graph.NewBuilder(4).Build()
	shell := kShell(g)
	for v, s := range shell {
		if s != 0 {
			t.Fatalf("isolated vertex %d shell = %d", v, s)
		}
	}
}

func TestKShellSeedsPreferCore(t *testing.T) {
	// Dense core + sparse periphery: the first seeds must come from the
	// core.
	b := graph.NewBuilder(20)
	for u := 0; u < 6; u++ {
		for v := 0; v < 6; v++ {
			if u != v {
				b.Add(graph.Vertex(u), graph.Vertex(v), 1)
			}
		}
	}
	for v := 6; v < 20; v++ {
		b.Add(graph.Vertex(v), graph.Vertex(v%6), 1)
	}
	g := b.Build()
	seeds := KShellSeeds(g, 4)
	for _, s := range seeds {
		if s >= 6 {
			t.Fatalf("k-shell seed %d outside the core (seeds %v)", s, seeds)
		}
	}
	if got := KShellSeeds(g, 100); len(got) != 20 {
		t.Fatalf("k > n returned %d seeds", len(got))
	}
}
