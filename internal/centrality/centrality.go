// Package centrality implements the topological node-importance measures
// that Section 5 compares influence maximization against on biological
// networks: degree centrality and exact betweenness centrality (Brandes'
// algorithm), with top-k ranking helpers.
package centrality

import (
	"sort"

	"influmax/internal/graph"
	"influmax/internal/par"
)

// TotalDegree returns each vertex's in+out degree.
func TotalDegree(g *graph.Graph) []float64 {
	n := g.NumVertices()
	scores := make([]float64, n)
	for v := 0; v < n; v++ {
		scores[v] = float64(g.OutDegree(graph.Vertex(v)) + g.InDegree(graph.Vertex(v)))
	}
	return scores
}

// Betweenness returns the exact betweenness centrality of every vertex on
// the directed, unweighted skeleton of g (edge probabilities ignored),
// using Brandes' algorithm: one BFS plus dependency accumulation per
// source, parallelized over sources. O(n m) time.
func Betweenness(g *graph.Graph, workers int) []float64 {
	n := g.NumVertices()
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	partial := make([][]float64, workers)
	par.ForEach(n, workers, func(rank, lo, hi int) {
		bc := make([]float64, n)
		st := newBrandesState(n)
		for s := lo; s < hi; s++ {
			st.accumulate(g, graph.Vertex(s), bc)
		}
		partial[rank] = bc
	})
	out := make([]float64, n)
	for _, bc := range partial {
		for v, x := range bc {
			out[v] += x
		}
	}
	return out
}

// brandesState is per-worker scratch for one-source dependency
// accumulation.
type brandesState struct {
	sigma []float64 // shortest-path counts
	dist  []int32
	delta []float64
	preds [][]graph.Vertex
	stack []graph.Vertex
	queue []graph.Vertex
}

func newBrandesState(n int) *brandesState {
	return &brandesState{
		sigma: make([]float64, n),
		dist:  make([]int32, n),
		delta: make([]float64, n),
		preds: make([][]graph.Vertex, n),
		stack: make([]graph.Vertex, 0, n),
		queue: make([]graph.Vertex, 0, n),
	}
}

// accumulate adds source s's pair dependencies into bc.
func (st *brandesState) accumulate(g *graph.Graph, s graph.Vertex, bc []float64) {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		st.sigma[v] = 0
		st.dist[v] = -1
		st.delta[v] = 0
		st.preds[v] = st.preds[v][:0]
	}
	st.stack = st.stack[:0]
	st.queue = st.queue[:0]
	st.sigma[s] = 1
	st.dist[s] = 0
	st.queue = append(st.queue, s)
	for head := 0; head < len(st.queue); head++ {
		v := st.queue[head]
		st.stack = append(st.stack, v)
		dsts, _ := g.OutNeighbors(v)
		for _, w := range dsts {
			if st.dist[w] < 0 {
				st.dist[w] = st.dist[v] + 1
				st.queue = append(st.queue, w)
			}
			if st.dist[w] == st.dist[v]+1 {
				st.sigma[w] += st.sigma[v]
				st.preds[w] = append(st.preds[w], v)
			}
		}
	}
	for i := len(st.stack) - 1; i >= 0; i-- {
		w := st.stack[i]
		for _, v := range st.preds[w] {
			st.delta[v] += st.sigma[v] / st.sigma[w] * (1 + st.delta[w])
		}
		if w != s {
			bc[w] += st.delta[w]
		}
	}
}

// TopK returns the k highest-scoring vertices (ties toward smaller id), in
// descending score order.
func TopK(scores []float64, k int) []graph.Vertex {
	n := len(scores)
	if k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	out := make([]graph.Vertex, k)
	for i := 0; i < k; i++ {
		out[i] = graph.Vertex(idx[i])
	}
	return out
}
