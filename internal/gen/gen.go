// Package gen provides synthetic graph generators and scaled analogs of
// the eight SNAP datasets of the paper's Table 2. The real SNAP files are
// not redistributable inside this repository, so each dataset is replaced
// by a generator whose size, density and degree skew match the original at
// a configurable scale — the properties that drive every evaluation shape
// in the paper (theta growth, phase mix, LT vs IC workload, scaling knees).
package gen

import (
	"fmt"

	"influmax/internal/graph"
	"influmax/internal/rng"
)

// ErdosRenyi returns a directed G(n, m) graph: m edges drawn uniformly
// without self-loops (parallel edges possible, as in the multigraph
// variant). Weights are zero; assign a scheme afterwards.
func ErdosRenyi(n, m int, seed uint64) *graph.Graph {
	if n < 2 {
		panic("gen: ErdosRenyi needs n >= 2")
	}
	r := rng.New(rng.NewLCG(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u := r.Intn(n)
		v := r.Intn(n - 1)
		if v >= u {
			v++
		}
		b.Add(graph.Vertex(u), graph.Vertex(v), 0)
	}
	return b.Build()
}

// BarabasiAlbert returns a directed preferential-attachment graph: each
// new vertex adds mPer edges toward existing vertices chosen
// proportionally to their current degree (citation-network style, like
// cit-HepTh). n must exceed mPer.
func BarabasiAlbert(n, mPer int, seed uint64) *graph.Graph {
	if n <= mPer || mPer < 1 {
		panic("gen: BarabasiAlbert needs n > mPer >= 1")
	}
	r := rng.New(rng.NewLCG(seed))
	b := graph.NewBuilder(n)
	// endpoints holds one entry per edge endpoint; uniform sampling from
	// it is degree-proportional sampling.
	endpoints := make([]graph.Vertex, 0, 2*n*mPer)
	// Seed clique over the first mPer+1 vertices.
	for u := 0; u <= mPer; u++ {
		v := (u + 1) % (mPer + 1)
		b.Add(graph.Vertex(u), graph.Vertex(v), 0)
		endpoints = append(endpoints, graph.Vertex(u), graph.Vertex(v))
	}
	for u := mPer + 1; u < n; u++ {
		for e := 0; e < mPer; e++ {
			t := endpoints[r.Intn(len(endpoints))]
			if int(t) == u {
				t = graph.Vertex(r.Intn(u)) // fall back to uniform
			}
			b.Add(graph.Vertex(u), t, 0)
			endpoints = append(endpoints, graph.Vertex(u), t)
		}
	}
	return b.Build()
}

// WattsStrogatz returns a directed small-world graph: a ring lattice where
// each vertex points to its k nearest clockwise neighbors, with each edge
// rewired to a uniform random target with probability beta.
func WattsStrogatz(n, k int, beta float64, seed uint64) *graph.Graph {
	if n < k+2 || k < 1 {
		panic("gen: WattsStrogatz needs n >= k+2, k >= 1")
	}
	if !(beta >= 0 && beta <= 1) {
		panic("gen: beta out of [0,1]")
	}
	r := rng.New(rng.NewLCG(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			v := (u + j) % n
			if r.Float64() < beta {
				v = r.Intn(n - 1)
				if v >= u {
					v++
				}
			}
			b.Add(graph.Vertex(u), graph.Vertex(v), 0)
		}
	}
	return b.Build()
}

// RMAT returns a recursive-matrix (Kronecker-like) graph over n vertices
// with m edges and quadrant probabilities (a, b, c, 1-a-b-c). Endpoints
// falling outside [0, n) (when n is not a power of two), self-loops, and
// previously drawn pairs are all rejected and redrawn, so the result is a
// simple graph with exactly m distinct edges — like the SNAP social
// networks these analogs stand in for, which record each follower
// relation once. Higher a produces heavier degree skew — the signature of
// social networks like com-YouTube and com-Orkut.
func RMAT(n, m int, a, b, c float64, seed uint64) *graph.Graph {
	if n < 2 || m < 0 || int64(m) > int64(n)*int64(n-1) {
		panic("gen: RMAT needs n >= 2 and 0 <= m <= n(n-1)")
	}
	if a <= 0 || b < 0 || c < 0 || a+b+c >= 1 {
		panic("gen: RMAT quadrant probabilities invalid")
	}
	levels := 0
	for (1 << levels) < n {
		levels++
	}
	r := rng.New(rng.NewLCG(seed))
	bld := graph.NewBuilder(n)
	seen := make(map[uint64]struct{}, m)
	for i := 0; i < m; i++ {
		for {
			u, v := 0, 0
			for l := 0; l < levels; l++ {
				t := r.Float64()
				switch {
				case t < a:
					// upper-left: no bits set
				case t < a+b:
					v |= 1 << l
				case t < a+b+c:
					u |= 1 << l
				default:
					u |= 1 << l
					v |= 1 << l
				}
			}
			if u >= n || v >= n || u == v {
				continue
			}
			key := uint64(u)<<32 | uint64(v)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			bld.Add(graph.Vertex(u), graph.Vertex(v), 0)
			break
		}
	}
	return bld.Build()
}

// Kind selects a generator family for a dataset analog.
type Kind uint8

// Generator families.
const (
	KindRMAT Kind = iota
	KindBA
	KindWS
)

// Dataset describes one of the paper's Table 2 inputs and how its analog
// is synthesized.
type Dataset struct {
	// Name is the SNAP dataset name.
	Name string
	// Vertices and Edges are the full-scale sizes from Table 2.
	Vertices int
	Edges    int64
	// Kind selects the generator family that matches the graph's
	// character (citation / community / social).
	Kind Kind
	// A, B, C are the R-MAT quadrant probabilities (KindRMAT only);
	// heavier A means heavier degree skew.
	A, B, C float64
}

// Datasets returns the eight Table 2 inputs in the paper's order.
func Datasets() []Dataset {
	return []Dataset{
		{Name: "cit-HepTh", Vertices: 27770, Edges: 352807, Kind: KindBA},
		{Name: "soc-Epinions1", Vertices: 75879, Edges: 508837, Kind: KindRMAT, A: 0.55, B: 0.2, C: 0.2},
		{Name: "com-Amazon", Vertices: 334863, Edges: 925872, Kind: KindWS},
		{Name: "com-DBLP", Vertices: 317080, Edges: 1049866, Kind: KindRMAT, A: 0.45, B: 0.25, C: 0.2},
		{Name: "com-YouTube", Vertices: 1134890, Edges: 2987624, Kind: KindRMAT, A: 0.62, B: 0.19, C: 0.15},
		{Name: "soc-Pokec", Vertices: 1632803, Edges: 30622564, Kind: KindRMAT, A: 0.55, B: 0.2, C: 0.2},
		{Name: "soc-LiveJournal1", Vertices: 4847571, Edges: 68993773, Kind: KindRMAT, A: 0.57, B: 0.19, C: 0.19},
		{Name: "com-Orkut", Vertices: 3072441, Edges: 117185083, Kind: KindRMAT, A: 0.57, B: 0.19, C: 0.19},
	}
}

// ByName returns the dataset descriptor with the given name.
func ByName(name string) (Dataset, error) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("gen: unknown dataset %q", name)
}

// Generate synthesizes the analog at the given linear scale in (0, 1]:
// vertex and edge counts are both multiplied by scale, preserving the
// original's average degree (and therefore its workload character). The
// result has at least 64 vertices. Weights are zero; assign a scheme
// afterwards.
func (d Dataset) Generate(scale float64, seed uint64) *graph.Graph {
	if !(scale > 0 && scale <= 1) {
		panic("gen: scale out of (0, 1]")
	}
	n := int(float64(d.Vertices) * scale)
	if n < 64 {
		n = 64
	}
	avgDeg := float64(d.Edges) / float64(d.Vertices)
	m := int(float64(n) * avgDeg)
	switch d.Kind {
	case KindBA:
		mPer := int(avgDeg + 0.5)
		if mPer < 1 {
			mPer = 1
		}
		return BarabasiAlbert(n, mPer, seed)
	case KindWS:
		k := int(avgDeg + 0.5)
		if k < 1 {
			k = 1
		}
		return WattsStrogatz(n, k, 0.1, seed)
	default:
		return RMAT(n, m, d.A, d.B, d.C, seed)
	}
}
