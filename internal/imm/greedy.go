package imm

import (
	"influmax/internal/graph"
	"influmax/internal/par"
)

// The selection engine (DESIGN.md "Selection engine"): Algorithm 4 is one
// loop — count, argmax, purge, repeat — and Greedy is the only place it is
// written. Where the counts come from and how a purge updates them is the
// coverage backend's business: a flat or byte-coded local store
// (coverage.go), an AllReduce over sample-partitioned ranks
// (internal/dist), or a fleet of remote shards (internal/cluster).

// Count is a coverage counter: int32 over one process's samples, int64
// once counts are merged across ranks or shards.
type Count interface{ ~int32 | ~int64 }

// Coverage is the engine's view of a sample store — the session contract
// of the cluster's shard API, which every backend implements.
type Coverage[C Count] interface {
	// Start opens a fresh selection over the samples rooted in audience
	// (all samples when empty). It returns the dense per-vertex count of
	// uncovered eligible samples containing each vertex, and the eligible
	// sample total. The backend keeps the slice and updates it in place.
	Start(audience []graph.Vertex) (counts []C, eligible int64, err error)
	// Purge marks v's still-uncovered samples covered and decrements the
	// counts of their members. restarted reports that the backend lost
	// samples instead (a shard died): the counts are void and the engine
	// must Start again and replay. A backend that reports restarts must
	// eventually fail Start, so replays terminate.
	Purge(v graph.Vertex) (restarted bool, err error)
	// End releases the selection.
	End()
}

// ratioBetter is the budgeted argmax's total order: gain-per-cost
// descending, then exact gain descending, then vertex ascending. The order
// is total and scanned ascending by vertex within each worker interval, so
// the winner is independent of the worker count; and because float64
// division by a positive constant is monotone (non-strict) in the integer
// gain, uniform costs reduce the order to the plain (gain, vertex) one —
// the plain/budgeted equivalence the property tests pin.
func ratioBetter(r1 float64, g1 int64, v1 int, r2 float64, g2 int64, v2 int) bool {
	if r1 != r2 {
		return r1 > r2
	}
	if g1 != g2 {
		return g1 > g2
	}
	return v1 < v2
}

// greedy is one selection in flight: everything about it that does not
// depend on where the samples live.
type greedy[C Count] struct {
	be    Coverage[C]
	n, p  int
	q     Query
	costs []float64 // nil unless budgeted

	counter []C
	chosen  []bool
	res     QueryResult

	bests  []int64
	args   []int
	ratios []float64 // per-worker best ratio, budgeted argmax only
}

// Greedy runs q over the backend's samples with p argmax workers and
// returns the seeds in selection order with their marginal gains. onSeed,
// when non-nil, sees each seed as it is committed (gains there are as of
// selection time; the result restates them if the backend restarted). The
// result is never nil: when the backend fails, the seeds committed so far
// come back with the error. q is not validated here — the plain selectors
// rely on k >= n selecting every vertex.
func Greedy[C Count](be Coverage[C], n int, q Query, p int, onSeed func(i int, v graph.Vertex, gain int64)) (*QueryResult, error) {
	g := &greedy[C]{be: be, n: n, p: clampWorkers(p, n), q: q, chosen: make([]bool, n)}
	if n == 0 {
		return &g.res, nil
	}
	g.res.Seeds = make([]graph.Vertex, 0, min(q.K, n))
	g.res.Gains = make([]int64, 0, min(q.K, n))
	g.bests, g.args = make([]int64, g.p), make([]int, g.p)
	if q.Budgeted() {
		g.ratios = make([]float64, g.p)
		if g.costs = q.Costs; g.costs == nil {
			g.costs = make([]float64, n)
			for v := range g.costs {
				g.costs[v] = 1
			}
		}
	}
	err := g.establish()
	for err == nil && len(g.res.Seeds) < q.K {
		arg := g.argmax()
		if arg < 0 {
			break // every vertex chosen, or none affordable
		}
		v, gain := graph.Vertex(arg), int64(g.counter[arg])
		g.res.Seeds = append(g.res.Seeds, v)
		g.res.Gains = append(g.res.Gains, gain)
		g.res.Covered += gain
		g.chosen[arg] = true
		if g.costs != nil {
			g.res.SpentBudget += g.costs[arg]
		}
		if onSeed != nil {
			onSeed(len(g.res.Seeds)-1, v, gain)
		}
		// A padding seed (gain 0) is purged like any other: its samples are
		// all covered already, so the backend finds nothing to decrement.
		var restarted bool
		if restarted, err = be.Purge(v); restarted && err == nil {
			err = g.establish()
		}
	}
	be.End()
	return &g.res, err
}

// clampWorkers resolves a worker count against n items.
func clampWorkers(p, n int) int {
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	return min(p, max(n, 1))
}

// establish (re)builds the committed state on a fresh backend session and
// is both the set-up of a new query and the recovery after a backend
// restart; it loops until one replay runs through undisturbed.
func (g *greedy[C]) establish() error {
	for {
		var err error
		if g.counter, g.res.Eligible, err = g.be.Start(g.q.Audience); err != nil {
			return err
		}
		if restarted, err := g.replay(); !restarted || err != nil {
			return err
		}
	}
}

// replay takes the rival's blocked seeds off the table and purges their
// coverage (competitive selection: it yields no gain to anyone), then
// re-purges the seeds committed so far in order, restating their gains
// over the samples now participating.
func (g *greedy[C]) replay() (restarted bool, err error) {
	g.res.Covered = 0
	for _, b := range g.q.Blocked {
		g.chosen[b] = true
		if g.counter[b] == 0 {
			continue // nothing left to purge (or listed twice)
		}
		if restarted, err = g.be.Purge(b); restarted || err != nil {
			return restarted, err
		}
	}
	for i, s := range g.res.Seeds {
		g.res.Gains[i] = int64(g.counter[s])
		g.res.Covered += g.res.Gains[i]
		if restarted, err = g.be.Purge(s); restarted || err != nil {
			return restarted, err
		}
	}
	return false, nil
}

// argmax picks the next seed over the worker-owned vertex intervals of
// Algorithm 4: the largest count, lowest vertex on ties — or, under a
// budget, the ratioBetter-best affordable vertex. Returns -1 when no
// candidate remains.
func (g *greedy[C]) argmax() int {
	counter, chosen, costs := g.counter, g.chosen, g.costs
	if costs == nil {
		par.Run(g.p, func(rank int) {
			vl, vh := par.Interval(g.n, g.p, rank)
			best, arg := int64(-1), -1
			for v := vl; v < vh; v++ {
				if chosen[v] {
					continue
				}
				if c := int64(counter[v]); c > best {
					best, arg = c, v
				}
			}
			g.bests[rank], g.args[rank] = best, arg
		})
		_, arg := par.ReduceMax(g.bests, g.args)
		return arg
	}
	spent, budget := g.res.SpentBudget, g.q.Budget
	par.Run(g.p, func(rank int) {
		vl, vh := par.Interval(g.n, g.p, rank)
		bestR, best, arg := 0.0, int64(-1), -1
		for v := vl; v < vh; v++ {
			if chosen[v] || spent+costs[v] > budget {
				continue
			}
			c := int64(counter[v])
			if r := float64(c) / costs[v]; arg < 0 || ratioBetter(r, c, v, bestR, best, arg) {
				bestR, best, arg = r, c, v
			}
		}
		g.ratios[rank], g.bests[rank], g.args[rank] = bestR, best, arg
	})
	win := -1
	for rank, arg := range g.args {
		if arg >= 0 && (win < 0 || ratioBetter(g.ratios[rank], g.bests[rank], arg, g.ratios[win], g.bests[win], g.args[win])) {
			win = rank
		}
	}
	if win < 0 {
		return -1
	}
	return g.args[win]
}
