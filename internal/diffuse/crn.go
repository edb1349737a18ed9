package diffuse

import (
	"math"

	"influmax/internal/graph"
	"influmax/internal/par"
	"influmax/internal/rng"
)

// Common-random-numbers (CRN) cascades: instead of flipping edge coins in
// traversal order, each trial fixes a live-edge subgraph as a pure function
// of (trial id, edge identity), and the spread of a seed set is its
// reachability in that fixed subgraph.
//
// This makes the per-trial spread an exact coverage function — monotone
// and submodular in the seed set — which is what the CELF lazy-greedy's
// correctness argument requires of its oracle. It is also the live-edge
// ("triggering set") view under which Kempe et al. prove submodularity of
// the expectation. Distributionally, CRN and traversal-order cascades are
// identical for a single seed set.

// crnU01 returns the uniform coin of the given identity under trial.
func crnU01(trialSeed, id uint64) float64 {
	return float64(rng.Mix64(trialSeed^(id*0x9e3779b97f4a7c15+0x632be59bd9b4e019))>>11) * (1.0 / (1 << 53))
}

// cascadeCRN runs one live-edge trial under key (see mixTrial) from seeds
// and returns the number of reachable (activated) vertices. Trials with
// the same key are identical regardless of the seed set, so marginal gains
// computed against a common trial set are exactly submodular.
//
// Under IC, out-edge e is live iff coin(e) < p(e). Under LT, every vertex
// selects at most one incoming edge (proportionally to its in-weights,
// using one coin per vertex); an edge is live iff its destination selected
// it.
func (s *Simulator) cascadeCRN(key uint64, seeds []graph.Vertex) int {
	s.nextEpoch()
	s.queue = s.queue[:0]
	for _, v := range seeds {
		if s.active[v] != s.epoch {
			s.active[v] = s.epoch
			s.queue = append(s.queue, v)
		}
	}
	return len(s.queue) + s.expandCRN(key, 0)
}

// mixTrial collapses (seed, trial) into one 64-bit trial key.
func mixTrial(seed, trial uint64) uint64 {
	return rng.Mix64(seed + trial*0xd1342543de82ef95)
}

// selectedInSlot returns the global in-CSR slot of the single incoming
// edge vertex v selects under this trial, or -1 if v selects none. The
// per-vertex coin identity is offset past the edge space so IC edge coins
// and LT vertex coins never collide.
func (s *Simulator) selectedInSlot(key uint64, v graph.Vertex) int64 {
	t := crnU01(key, uint64(s.g.NumEdges())+uint64(v))
	_, ws := s.g.InNeighbors(v)
	cum := 0.0
	base := s.g.InEdgeBase(v)
	for i, w := range ws {
		cum += float64(w)
		if t < cum {
			return base + int64(i)
		}
	}
	return -1
}

// EstimateSpreadCRN estimates E[|I(S)|] with trials common-random-numbers
// cascades across workers goroutines. For a fixed (seed, trials) the
// result is a deterministic, monotone and submodular function of the seed
// set — the oracle the greedy/CELF baselines require. Returns the sample
// mean and standard error.
func EstimateSpreadCRN(g *graph.Graph, model Model, seeds []graph.Vertex, trials int, workers int, seed uint64) (mean, stderr float64) {
	if trials <= 0 {
		return 0, 0
	}
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	sums := make([]float64, workers)
	sqs := make([]float64, workers)
	par.ForEach(trials, workers, func(rank, lo, hi int) {
		sim := newSimulator(g, model)
		for t := lo; t < hi; t++ {
			c := float64(sim.cascadeCRN(mixTrial(seed, uint64(t)), seeds))
			sums[rank] += c
			sqs[rank] += c * c
		}
	})
	var sum, sq float64
	for i := range sums {
		sum += sums[i]
		sq += sqs[i]
	}
	mean = sum / float64(trials)
	if trials > 1 {
		variance := (sq - sum*sum/float64(trials)) / float64(trials-1)
		if variance > 0 {
			stderr = math.Sqrt(variance / float64(trials))
		}
	}
	return mean, stderr
}
