package imm

import (
	"math"
	"slices"
	"sync"

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

// Recounter is the optional half of the backend contract (DESIGN.md
// §18.1). A backend that implements it may leave the counts slice as
// upper bounds after a Purge — the counts Start returns are exact, and
// none ever rises — and Greedy reads every count it acts on through
// Recount instead: a heap top's, a blocked vertex's and a replayed
// seed's.
type Recounter[C Count] interface {
	// Recount sets out[i] to vs[i]'s exact count: its uncovered eligible
	// samples as of the purges so far.
	Recount(vs []graph.Vertex, out []C) error
}

// ratioBetter is the budgeted argmax's total order: gain-per-cost
// descending, then exact gain descending, then vertex ascending. Because
// float64 division by a positive constant is monotone (non-strict) in the
// integer gain, uniform costs reduce the order to the plain (gain, vertex)
// one — the plain/budgeted equivalence the property tests pin, and why a
// budget without costs (nil costs: cost 1) never divides.
func ratioBetter(r1 float64, g1 int64, v1 int, r2 float64, g2 int64, v2 int) bool {
	if r1 != r2 {
		return r1 > r2
	}
	if g1 != g2 {
		return g1 > g2
	}
	return v1 < v2
}

// candidate is a lazy-heap entry: a vertex and its count as last seen.
type candidate[C Count] struct {
	key C
	v   graph.Vertex
}

// greedy is one selection in flight: everything about it that does not
// depend on where the samples live. The value is pooled for its O(n) parts
// (chosen, heap), so nothing handed to the caller may point into it.
type greedy[C Count] struct {
	be Coverage[C]
	rc Recounter[C] // be, when it recounts; nil when its counts stay exact
	q  Query        // empty q.Costs (nil or "costs":[]) means unit costs, or no budget

	counter []C
	chosen  []bool
	heap    []candidate[C] // lazy max-heap over the unchosen vertices (argmax)
	minCost float64        // cheapest heap entry when it was built
	pops    int            // heap entries argmax examined: the engine's work count
	res     QueryResult

	// Recount's arguments: the one vertex count reads.
	vs  [1]graph.Vertex
	out [1]C
}

// greedyPool recycles greedy values of either counter type; Get drops a
// value of the other type, so mixing both costs allocations, not errors.
var greedyPool sync.Pool

// Greedy runs q over the backend's samples and returns the seeds in
// selection order with their marginal gains. onSeed, when non-nil, sees
// each seed as it is committed (gains there are as of selection time; the
// result restates them if the backend restarted). The result is never nil:
// when the backend fails, the seeds committed so far come back with the
// error. q is not validated here — the plain selectors rely on k >= n
// selecting every vertex.
func Greedy[C Count](be Coverage[C], n int, q Query, onSeed func(i int, v graph.Vertex, gain int64)) (*QueryResult, error) {
	g, _ := greedyPool.Get().(*greedy[C])
	if g == nil {
		g = new(greedy[C])
	}
	err := g.run(be, n, q, onSeed)
	res := g.res
	*g = greedy[C]{chosen: g.chosen, heap: g.heap[:0]}
	greedyPool.Put(g)
	return &res, err
}

func (g *greedy[C]) run(be Coverage[C], n int, q Query, onSeed func(i int, v graph.Vertex, gain int64)) error {
	g.be, g.q = be, q
	g.rc, _ = be.(Recounter[C])
	if n == 0 {
		return nil
	}
	g.chosen = zeroed(g.chosen, n)
	g.res.Seeds = make([]graph.Vertex, 0, min(q.K, n))
	g.res.Gains = make([]int64, 0, min(q.K, n))
	err := g.establish()
	for err == nil && len(g.res.Seeds) < q.K {
		var arg int
		var count C
		if arg, count, err = g.argmax(); arg < 0 {
			break // every vertex chosen, none affordable, or a failed recount
		}
		v, gain := graph.Vertex(arg), int64(count)
		g.res.Seeds = append(g.res.Seeds, v)
		g.res.Gains = append(g.res.Gains, gain)
		g.res.Covered += gain
		g.chosen[arg] = true
		if q.Budgeted() {
			g.res.SpentBudget += g.cost(v)
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
	return err
}

// clampWorkers resolves a worker count against n items.
func clampWorkers(p, n int) int {
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	return min(p, max(n, 1))
}

// cost is v's selection cost under a budget.
func (g *greedy[C]) cost(v graph.Vertex) float64 {
	if len(g.q.Costs) == 0 {
		return 1
	}
	return g.q.Costs[v]
}

// count is v's exact count: the counts slice's entry, or a Recounter's
// recount of v.
func (g *greedy[C]) count(v graph.Vertex) (C, error) {
	if g.rc == nil {
		return g.counter[v], nil
	}
	g.vs[0] = v
	err := g.rc.Recount(g.vs[:1], g.out[:1])
	return g.out[0], err
}

// establish (re)builds the committed state on a fresh backend session and
// is both the set-up of a new query and the recovery after a backend
// restart; it loops until one replay runs through undisturbed. The heap
// is keyed by Start's counts, taken before the replay purges anything —
// the one pass over all n a selection makes. Those are exact for every
// backend, so a recounting one builds the very heap a decrementing one
// does, and the two examine the same entries (DESIGN.md §18.5).
func (g *greedy[C]) establish() error {
	for {
		var err error
		if g.counter, g.res.Eligible, err = g.be.Start(g.q.Audience); err != nil {
			return err
		}
		for _, b := range g.q.Blocked {
			g.chosen[b] = true
		}
		g.heap, g.minCost = slices.Grow(g.heap[:0], len(g.counter)), 1
		if len(g.q.Costs) > 0 {
			g.minCost = math.Inf(1)
		}
		for v, c := range g.counter {
			if g.chosen[v] {
				continue
			}
			g.heap = append(g.heap, candidate[C]{c, graph.Vertex(v)})
			if len(g.q.Costs) > 0 {
				g.minCost = min(g.minCost, g.q.Costs[v])
			}
		}
		if restarted, err := g.replay(); restarted {
			continue
		} else if err != nil {
			return err
		}
		for i := len(g.heap)/2 - 1; i >= 0; i-- {
			g.siftDown(i)
		}
		return nil
	}
}

// replay purges the rival's blocked seeds' coverage (competitive
// selection: it yields no gain to anyone), then re-purges the seeds
// committed so far in order, restating their gains over the samples now
// participating.
func (g *greedy[C]) replay() (restarted bool, err error) {
	g.res.Covered = 0
	var c C
	for _, b := range g.q.Blocked {
		if c, err = g.count(b); err != nil {
			return false, err
		} else if c == 0 {
			continue // nothing left to purge (or listed twice)
		}
		if restarted, err = g.be.Purge(b); restarted || err != nil {
			return restarted, err
		}
	}
	for i, s := range g.res.Seeds {
		if c, err = g.count(s); err != nil {
			return false, err
		}
		g.res.Gains[i] = int64(c)
		g.res.Covered += g.res.Gains[i]
		if restarted, err = g.be.Purge(s); restarted || err != nil {
			return restarted, err
		}
	}
	return false, nil
}

// before is the argmax's total order over heap entries: the larger count,
// lowest vertex on ties — or, under per-vertex costs, ratioBetter.
func (g *greedy[C]) before(a, b candidate[C]) bool {
	if len(g.q.Costs) == 0 {
		return a.key > b.key || a.key == b.key && a.v < b.v
	}
	return ratioBetter(float64(a.key)/g.q.Costs[a.v], int64(a.key), int(a.v),
		float64(b.key)/g.q.Costs[b.v], int64(b.key), int(b.v))
}

func (g *greedy[C]) siftDown(i int) {
	h, e := g.heap, g.heap[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && g.before(h[c+1], h[c]) {
			c++
		}
		if !g.before(h[c], e) {
			break
		}
		h[i], i = h[c], c
	}
	h[i] = e
}

// argmax picks the next seed and its count: the best unchosen — under a
// budget, still affordable — vertex in the before order, or -1 when none
// remains (or a recount failed, with the error). Counts only ever fall,
// so an entry's key is an upper bound on its count and its heap position
// no later than its true rank: when the top's key equals its count, the
// top is the exact argmax, ties included (DESIGN.md §18.5). A stale top is
// re-keyed and sifted; an unaffordable one is dropped for good, since
// spend only grows. Chosen vertices are never in the heap.
func (g *greedy[C]) argmax() (int, C, error) {
	spent, budget := g.res.SpentBudget, g.q.Budget
	if !g.q.Budgeted() {
		budget = math.Inf(1)
	} else if spent+g.minCost > budget {
		return -1, 0, nil // not even the cheapest fits: popping all n would say the same
	}
	for len(g.heap) > 0 {
		g.pops++
		top := g.heap[0]
		drop := spent+g.cost(top.v) > budget
		if !drop {
			c, err := g.count(top.v)
			if err != nil {
				return -1, 0, err
			}
			if c != top.key {
				g.heap[0].key = c
				g.siftDown(0)
				continue
			}
		}
		last := len(g.heap) - 1
		g.heap[0] = g.heap[last]
		if g.heap = g.heap[:last]; last > 0 {
			g.siftDown(0)
		}
		if !drop {
			return int(top.v), top.key, nil
		}
	}
	return -1, 0, nil
}
