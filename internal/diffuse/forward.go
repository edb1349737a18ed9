package diffuse

import (
	"math"

	"influmax/internal/graph"
	"influmax/internal/par"
	"influmax/internal/rng"
)

// Simulator runs forward diffusion cascades from a seed set. Like Sampler
// it owns reusable scratch and is not safe for concurrent use.
type Simulator struct {
	g     *graph.Graph
	model Model

	active []uint32 // epoch-stamped activation marks
	epoch  uint32
	queue  []graph.Vertex

	// LT state: random thresholds and accumulated active in-weight,
	// epoch-stamped alongside active.
	threshold []float32
	acc       []float32
	touched   []uint32
}

// newSimulator returns a forward simulator over g for the given model.
func newSimulator(g *graph.Graph, model Model) *Simulator {
	n := g.NumVertices()
	s := &Simulator{g: g, model: model, active: make([]uint32, n)}
	if model == LT {
		s.threshold = make([]float32, n)
		s.acc = make([]float32, n)
		s.touched = make([]uint32, n)
	}
	return s
}

func (s *Simulator) nextEpoch() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.active)
		if s.touched != nil {
			clear(s.touched)
		}
		s.epoch = 1
	}
}

// cascade runs one Monte Carlo diffusion trial from seeds and returns the
// number of activated vertices |I(S)| (the seeds count as activated).
// Duplicate seeds are counted once.
func (s *Simulator) cascade(r *rng.Rand, seeds []graph.Vertex) int {
	switch s.model {
	case IC:
		return s.cascadeIC(r, seeds)
	case LT:
		return s.cascadeLT(r, seeds)
	}
	panic("diffuse: unknown model")
}

// cascadeIC is the probabilistic BFS of the Problem Statement: every newly
// activated vertex gets a one-shot chance per outgoing edge.
func (s *Simulator) cascadeIC(r *rng.Rand, seeds []graph.Vertex) int {
	s.nextEpoch()
	s.queue = s.queue[:0]
	count := 0
	for _, v := range seeds {
		if s.active[v] == s.epoch {
			continue
		}
		s.active[v] = s.epoch
		s.queue = append(s.queue, v)
		count++
	}
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		dsts, ws := s.g.OutNeighbors(u)
		for i, v := range dsts {
			if s.active[v] == s.epoch {
				continue
			}
			if r.Float32() < ws[i] {
				s.active[v] = s.epoch
				s.queue = append(s.queue, v)
				count++
			}
		}
	}
	return count
}

// cascadeLT activates a vertex when the summed weight of its active
// in-neighbors crosses the vertex's uniform random threshold (drawn lazily
// the first time the vertex is touched in a trial).
func (s *Simulator) cascadeLT(r *rng.Rand, seeds []graph.Vertex) int {
	s.nextEpoch()
	s.queue = s.queue[:0]
	count := 0
	for _, v := range seeds {
		if s.active[v] == s.epoch {
			continue
		}
		s.active[v] = s.epoch
		s.queue = append(s.queue, v)
		count++
	}
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		dsts, ws := s.g.OutNeighbors(u)
		for i, v := range dsts {
			if s.active[v] == s.epoch {
				continue
			}
			if s.touched[v] != s.epoch {
				s.touched[v] = s.epoch
				s.threshold[v] = r.Float32()
				s.acc[v] = 0
			}
			// Parallel u->v edges each contribute their own weight.
			s.acc[v] += ws[i]
			if s.acc[v] >= s.threshold[v] {
				s.active[v] = s.epoch
				s.queue = append(s.queue, v)
				count++
			}
		}
	}
	return count
}

// EstimateSpread estimates E[|I(S)|] for the seed set by running trials
// Monte Carlo cascades across workers goroutines (workers <= 0 uses
// GOMAXPROCS). Each trial draws its randomness from a stream derived from
// (seed, trial), so the result is independent of scheduling. It returns
// the sample mean and the standard error of the mean.
func EstimateSpread(g *graph.Graph, model Model, seeds []graph.Vertex, trials int, workers int, seed uint64) (mean, stderr float64) {
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
			r := rng.New(rng.Derive(seed, uint64(t)))
			c := float64(sim.cascade(r, seeds))
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
