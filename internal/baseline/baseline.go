// Package baseline implements the classic influence-maximization
// algorithms the literature (and the paper's related-work section) compares
// against: the greedy hill-climbing of Kempe et al. with a Monte Carlo
// spread oracle, run as the CELF lazy-greedy of Leskovec et al. (the plain
// greedy is the tests' reference), and the degree / single-discount /
// degree-discount heuristics of Chen et al.
package baseline

import (
	"container/heap"
	"fmt"
	"sort"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
)

// celfEntry is a lazily evaluated marginal gain.
type celfEntry struct {
	v     graph.Vertex
	gain  float64
	round int // seed-set size the gain was computed against
}

type celfHeap []celfEntry

func (h celfHeap) Len() int      { return len(h) }
func (h celfHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h celfHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].v < h[j].v
}
func (h *celfHeap) Push(x any) { *h = append(*h, x.(celfEntry)) }
func (h *celfHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// CELF is the Cost-Effective Lazy Forward optimization of the greedy
// algorithm: marginal gains are kept in a max-heap and only re-evaluated
// when stale, exploiting submodularity (a vertex's marginal gain can only
// shrink as the seed set grows). Exact same output as plain greedy up to
// Monte Carlo noise, typically with far fewer oracle calls.
func CELF(g *graph.Graph, model diffuse.Model, k, trials, workers int, seed uint64) ([]graph.Vertex, []float64, error) {
	n := g.NumVertices()
	if err := checkArgs(n, k, trials); err != nil {
		return nil, nil, err
	}
	h := make(celfHeap, 0, n)
	for v := 0; v < n; v++ {
		spread, _ := diffuse.EstimateSpreadCRN(g, model, []graph.Vertex{graph.Vertex(v)}, trials, workers, seed)
		h = append(h, celfEntry{v: graph.Vertex(v), gain: spread, round: 0})
	}
	heap.Init(&h)
	seeds := make([]graph.Vertex, 0, k)
	gains := make([]float64, 0, k)
	prevSpread := 0.0
	for len(seeds) < k && h.Len() > 0 {
		top := heap.Pop(&h).(celfEntry)
		if top.round == len(seeds) {
			seeds = append(seeds, top.v)
			gains = append(gains, top.gain)
			prevSpread += top.gain
			continue
		}
		cand := append(seeds, top.v)
		spread, _ := diffuse.EstimateSpreadCRN(g, model, cand, trials, workers, seed)
		top.gain = spread - prevSpread
		top.round = len(seeds)
		heap.Push(&h, top)
	}
	return seeds, gains, nil
}

// TopDegree returns the k vertices of largest out-degree (ties toward
// smaller id) — the simplest centrality heuristic of Section 5.
func TopDegree(g *graph.Graph, k int) []graph.Vertex {
	n := g.NumVertices()
	if k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		da, db := g.OutDegree(graph.Vertex(idx[a])), g.OutDegree(graph.Vertex(idx[b]))
		if da != db {
			return da > db
		}
		return idx[a] < idx[b]
	})
	out := make([]graph.Vertex, k)
	for i := 0; i < k; i++ {
		out[i] = graph.Vertex(idx[i])
	}
	return out
}

// SingleDiscount is the degree heuristic with a one-unit discount: each
// time a seed is chosen, the effective degree of its neighbors drops by
// one (Chen et al. 2009).
func SingleDiscount(g *graph.Graph, k int) []graph.Vertex {
	n := g.NumVertices()
	if k > n {
		k = n
	}
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(graph.Vertex(v))
	}
	chosen := make([]bool, n)
	seeds := make([]graph.Vertex, 0, k)
	for len(seeds) < k {
		best, arg := -1, -1
		for v := 0; v < n; v++ {
			if !chosen[v] && deg[v] > best {
				best, arg = deg[v], v
			}
		}
		seeds = append(seeds, graph.Vertex(arg))
		chosen[arg] = true
		dsts, _ := g.OutNeighbors(graph.Vertex(arg))
		for _, u := range dsts {
			if !chosen[u] {
				deg[u]--
			}
		}
	}
	return seeds
}

// DegreeDiscount is the degree-discount heuristic of Chen et al. (2009),
// derived for the IC model with a uniform activation probability p:
// dd(v) = d(v) - 2 t(v) - (d(v) - t(v)) t(v) p, where t(v) is the number
// of v's neighbors already chosen as seeds.
func DegreeDiscount(g *graph.Graph, k int, p float64) []graph.Vertex {
	n := g.NumVertices()
	if k > n {
		k = n
	}
	deg := make([]float64, n)
	t := make([]float64, n)
	dd := make([]float64, n)
	for v := 0; v < n; v++ {
		deg[v] = float64(g.OutDegree(graph.Vertex(v)))
		dd[v] = deg[v]
	}
	chosen := make([]bool, n)
	seeds := make([]graph.Vertex, 0, k)
	for len(seeds) < k {
		best, arg := -1.0, -1
		for v := 0; v < n; v++ {
			if !chosen[v] && dd[v] > best {
				best, arg = dd[v], v
			}
		}
		seeds = append(seeds, graph.Vertex(arg))
		chosen[arg] = true
		dsts, _ := g.OutNeighbors(graph.Vertex(arg))
		for _, u := range dsts {
			if chosen[u] {
				continue
			}
			t[u]++
			dd[u] = deg[u] - 2*t[u] - (deg[u]-t[u])*t[u]*p
		}
	}
	return seeds
}

func checkArgs(n, k, trials int) error {
	if k < 1 || k > n {
		return fmt.Errorf("baseline: k = %d out of [1, %d]", k, n)
	}
	if trials < 1 {
		return fmt.Errorf("baseline: trials = %d, want >= 1", trials)
	}
	return nil
}
