package graph

import "influmax/internal/rng"

// The paper's experimental setup: "the edge weights for probabilistic BFS
// are generated uniformly at random in the range [0,1]" for the IC model,
// and for the LT model "the weights are readjusted such that the sum of the
// probabilities of traversing one of the neighboring edges and of not
// traversing any of them, is one". Tang et al. instead fixed 0.10 on every
// edge; both schemes are provided, plus the weighted-cascade scheme
// (w = 1/indeg) common in the literature.

// AssignUniform sets every edge's activation probability to an independent
// uniform draw from [0, 1), deterministically from seed.
func (g *Graph) AssignUniform(seed uint64) {
	r := rng.New(rng.NewLCG(seed))
	for i := range g.inW {
		g.inW[i] = r.Float32()
	}
	g.syncOutWeights()
}

// AssignConstant sets every edge's activation probability to p (Tang et
// al.'s setup with p = 0.10).
func (g *Graph) AssignConstant(p float32) {
	if !(p >= 0 && p <= 1) {
		panic("graph: probability out of [0,1]")
	}
	for i := range g.inW {
		g.inW[i] = p
	}
	g.syncOutWeights()
}

// AssignWeightedCascade sets w(u,v) = 1/indeg(v), the weighted-cascade
// scheme of Kempe et al.
func (g *Graph) AssignWeightedCascade() {
	for v := 0; v < g.n; v++ {
		lo, hi := g.inOff[v], g.inOff[v+1]
		if hi == lo {
			continue
		}
		w := float32(1.0 / float64(hi-lo))
		for i := lo; i < hi; i++ {
			g.inW[i] = w
		}
	}
	g.syncOutWeights()
}

// ScaleWeights multiplies every edge's activation probability by f,
// clamping to [0, 1]. Used to damp inference scores (e.g. co-expression
// correlations) into a sub-saturating diffusion regime.
func (g *Graph) ScaleWeights(f float32) {
	if f < 0 {
		panic("graph: negative weight scale")
	}
	for i := range g.inW {
		w := g.inW[i] * f
		if w > 1 {
			w = 1
		}
		g.inW[i] = w
	}
	g.syncOutWeights()
}

// NormalizeLT rescales the incoming weights of every vertex so that they
// sum to at most 1, making the weights a valid Linear Threshold
// configuration: with probability sum(w) a reverse step follows one of the
// in-edges (chosen proportionally), and with probability 1-sum(w) no edge
// is traversed.
func (g *Graph) NormalizeLT() {
	for v := 0; v < g.n; v++ {
		lo, hi := g.inOff[v], g.inOff[v+1]
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += float64(g.inW[i])
		}
		if sum > 1 {
			inv := float32(1 / sum)
			for i := lo; i < hi; i++ {
				g.inW[i] *= inv
			}
		}
	}
	g.syncOutWeights()
}

// MaxInWeightSum returns the largest per-vertex sum of incoming weights
// (1.0 or less after NormalizeLT; used to validate LT configurations).
func (g *Graph) MaxInWeightSum() float64 {
	maxSum := 0.0
	for v := 0; v < g.n; v++ {
		if s := g.InWeightSum(Vertex(v)); s > maxSum {
			maxSum = s
		}
	}
	return maxSum
}
