package centrality

import "influmax/internal/graph"

// kShell computes the k-shell (k-core) decomposition of the undirected
// view of g: iteratively peel vertices of total degree <= k for k = 0, 1,
// 2, ...; a vertex's shell index is the k at which it is peeled. Wu et
// al. (CollaborateCom 2016) — reference [18] of the paper — select
// influence-maximization seeds from the innermost shells in parallel; the
// shell index is also a classic spreading-power indicator (Kitsak et al.,
// Nature Physics 2010).
//
// Runs in O(n + m) with the bucket-peeling algorithm of Batagelj-Zaversnik.
func kShell(g *graph.Graph) []int {
	n := g.NumVertices()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(graph.Vertex(v)) + g.InDegree(graph.Vertex(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort vertices by degree.
	bin := make([]int, maxDeg+2) // bin[d] = start index of degree-d block
	for _, d := range deg {
		bin[d+1]++
	}
	for d := 1; d <= maxDeg+1; d++ {
		bin[d] += bin[d-1]
	}
	pos := make([]int, n)  // position of vertex in vert
	vert := make([]int, n) // vertices sorted by current degree
	next := append([]int(nil), bin[:maxDeg+1]...)
	for v := 0; v < n; v++ {
		pos[v] = next[deg[v]]
		vert[pos[v]] = v
		next[deg[v]]++
	}
	shell := make([]int, n)
	cur := append([]int(nil), deg...)
	for i := 0; i < n; i++ {
		v := vert[i]
		shell[v] = cur[v]
		// Peel v: decrement each neighbor of higher current degree,
		// moving it one bucket down (swap with the first element of its
		// block).
		relax := func(u int) {
			if cur[u] <= cur[v] {
				return
			}
			du := cur[u]
			pu := pos[u]
			pw := bin[du]
			w := vert[pw]
			if u != w {
				pos[u], pos[w] = pw, pu
				vert[pu], vert[pw] = w, u
			}
			bin[du]++
			cur[u]--
		}
		dsts, _ := g.OutNeighbors(graph.Vertex(v))
		for _, u := range dsts {
			relax(int(u))
		}
		srcs, _ := g.InNeighbors(graph.Vertex(v))
		for _, u := range srcs {
			relax(int(u))
		}
	}
	return shell
}

// KShellSeeds returns k seeds drawn from the innermost shells outward,
// breaking ties within a shell toward higher total degree then smaller id
// — the seed heuristic of reference [18].
func KShellSeeds(g *graph.Graph, k int) []graph.Vertex {
	n := g.NumVertices()
	if k > n {
		k = n
	}
	shell := kShell(g)
	scores := make([]float64, n)
	for v := 0; v < n; v++ {
		td := g.OutDegree(graph.Vertex(v)) + g.InDegree(graph.Vertex(v))
		// Shell dominates; total degree breaks ties within a shell.
		scores[v] = float64(shell[v])*float64(2*int(g.NumEdges())+1) + float64(td)
	}
	return TopK(scores, k)
}
