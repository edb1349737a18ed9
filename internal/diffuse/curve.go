package diffuse

import (
	"influmax/internal/graph"
	"influmax/internal/par"
)

// SpreadCurve estimates E[|I(seeds[:i])|] for every prefix i = 1..len
// (the "return on investment" curve of Figure 1) in a single pass per
// Monte Carlo trial: within one common-random-numbers trial the live-edge
// subgraph is fixed, so extending the seed prefix only requires a forward
// traversal from the newly added seed over not-yet-active vertices. Total
// cost is O(trials * (n + m)) for the whole curve instead of
// O(trials * k * (n + m)) for k independent evaluations.
//
// The i-th entry of the result is the estimated spread of seeds[:i+1].
func SpreadCurve(g *graph.Graph, model Model, seeds []graph.Vertex, trials, workers int, seed uint64) []float64 {
	k := len(seeds)
	if k == 0 || trials <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	partial := make([][]float64, workers)
	par.ForEach(trials, workers, func(rank, lo, hi int) {
		sums := make([]float64, k)
		sim := newSimulator(g, model)
		for t := lo; t < hi; t++ {
			key := mixTrial(seed, uint64(t))
			sim.nextEpoch()
			sim.queue = sim.queue[:0]
			active := 0
			for i, s := range seeds {
				// Grow the active set from the new seed only.
				if sim.active[s] != sim.epoch {
					sim.active[s] = sim.epoch
					active++
					start := len(sim.queue)
					sim.queue = append(sim.queue, s)
					active += sim.expandCRN(key, start)
				}
				sums[i] += float64(active)
			}
		}
		partial[rank] = sums
	})
	out := make([]float64, k)
	for _, sums := range partial {
		if sums == nil {
			continue
		}
		for i, s := range sums {
			out[i] += s
		}
	}
	for i := range out {
		out[i] /= float64(trials)
	}
	return out
}

// expandCRN runs the live-edge forward BFS from queue position start,
// returning the number of newly activated vertices (excluding those
// already counted when enqueued by the caller).
func (s *Simulator) expandCRN(key uint64, start int) int {
	count := 0
	for head := start; head < len(s.queue); head++ {
		u := s.queue[head]
		dsts, ws := s.g.OutNeighbors(u)
		switch s.model {
		case IC:
			base := uint64(s.g.OutEdgeBase(u))
			for i, v := range dsts {
				if s.active[v] == s.epoch {
					continue
				}
				if crnU01(key, base+uint64(i)) < float64(ws[i]) {
					s.active[v] = s.epoch
					s.queue = append(s.queue, v)
					count++
				}
			}
		case LT:
			inSlots := s.g.OutEdgeInSlots(u)
			for i, v := range dsts {
				if s.active[v] == s.epoch {
					continue
				}
				if s.selectedInSlot(key, v) == inSlots[i] {
					s.active[v] = s.epoch
					s.queue = append(s.queue, v)
					count++
				}
			}
		default:
			panic("diffuse: unknown model")
		}
	}
	return count
}
