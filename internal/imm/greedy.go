package imm

import (
	"cmp"
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

// run is a stretch of the order whose vertices share one Start count:
// the order from the previous run's end up to end.
type run[C Count] struct {
	key C
	end int32
}

// greedy is one selection in flight: everything about it that does not
// depend on where the samples live. The value is pooled for its O(n) parts
// (chosen, order, runs, buckets), so nothing handed to the caller
// may point into it.
type greedy[C Count] struct {
	be Coverage[C]
	rc Recounter[C] // be, when it recounts; nil when its counts stay exact
	q  Query        // empty q.Costs (nil or "costs":[]) means unit costs, or no budget

	counter []C
	chosen  []bool
	order   []graph.Vertex // the unchosen vertices by Start's count, descending, then by id
	runs    []run[C]       // the order's counts, one entry per stretch of equal ones
	next    int            // order[next:] is not yet in the heap
	inRun   int            // the run order[next] is in
	heap    []candidate[C] // lazy max-heap over the pulled vertices (argmax)
	buckets []int32        // sortOrder's histogram
	minCost float64        // cheapest cost in the order when it was sorted
	pops    int            // heap entries argmax examined: the engine's work count
	pulled  int            // order entries argmax moved into the heap
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
	*g = greedy[C]{chosen: g.chosen, order: g.order[:0], runs: g.runs[:0], heap: g.heap[:0],
		buckets: g.buckets[:0]}
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
// restart; it loops until one replay runs through undisturbed. The order
// is sorted by Start's counts, taken before the replay purges anything:
// those are exact for every backend, so a recounting one pulls and
// examines the very entries a decrementing one does (DESIGN.md §18.5).
func (g *greedy[C]) establish() error {
	for {
		var err error
		if g.counter, g.res.Eligible, err = g.be.Start(g.q.Audience); err != nil {
			return err
		}
		for _, b := range g.q.Blocked {
			g.chosen[b] = true
		}
		g.sortOrder()
		if restarted, err := g.replay(); !restarted {
			return err
		}
	}
}

// sortOrder lists the unchosen vertices by their counts — count
// descending, vertex ascending, so zero counts come last in id order —
// with the runs of equal counts beside them, and empties the heap. While
// every count lies in [0, n) it counting-sorts them, a bucket per count;
// wider counts (dist's and the fleet's merged int64s) are sorted in place
// by comparison. It also records the cheapest cost among the listed
// vertices, the bound argmax pulls and stops by.
func (g *greedy[C]) sortOrder() {
	counter, chosen, costs := g.counter, g.chosen[:len(g.counter)], g.q.Costs
	n := len(counter)
	g.heap, g.next, g.inRun, g.minCost = g.heap[:0], 0, 0, 1
	if len(costs) > 0 {
		least := math.Inf(1)
		for v, c := range costs[:n] {
			if c < least && !chosen[v] {
				least = c
			}
		}
		g.minCost = least
	}
	// buckets[c] counts the listed vertices of count c, growing with the
	// largest count seen; a count outside [0, n) stops the histogram.
	buckets, m, narrow := g.buckets[:0], 0, true
	for v, c := range counter {
		if chosen[v] {
			continue
		}
		if u := uint64(int64(c)); u >= uint64(len(buckets)) {
			if narrow = u < uint64(n); !narrow {
				break
			}
			had := len(buckets)
			buckets = slices.Grow(buckets, int(u)+1-had)[:u+1]
			clear(buckets[had:])
		}
		buckets[c]++
		m++
	}
	order, runs := g.order[:0], g.runs[:0]
	if narrow {
		order = slices.Grow(order, m)[:m]
		var at int32
		for c := len(buckets) - 1; c >= 0; c-- {
			if k := buckets[c]; k > 0 {
				buckets[c] = at
				at += k
				runs = append(runs, run[C]{C(c), at})
			}
		}
		for v, c := range counter {
			if !chosen[v] {
				order[buckets[c]] = graph.Vertex(v)
				buckets[c]++
			}
		}
		g.order, g.runs, g.buckets = order, runs, buckets
		return
	}
	for v := range counter {
		if !chosen[v] {
			order = append(order, graph.Vertex(v))
		}
	}
	slices.SortFunc(order, func(a, b graph.Vertex) int {
		if ca, cb := counter[a], counter[b]; ca != cb {
			return cmp.Compare(cb, ca)
		}
		return cmp.Compare(a, b)
	})
	for i, v := range order {
		if c := counter[v]; len(runs) == 0 || c != runs[len(runs)-1].key {
			runs = append(runs, run[C]{key: c})
		}
		runs[len(runs)-1].end = int32(i + 1)
	}
	g.order, g.runs, g.buckets = order, runs, buckets
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
	return g.ratioBefore(a, g.q.Costs[a.v], b)
}

// ratioBefore is ratioBetter between a, at cost aCost, and b at its own.
func (g *greedy[C]) ratioBefore(a candidate[C], aCost float64, b candidate[C]) bool {
	return ratioBetter(float64(a.key)/aCost, int64(a.key), int(a.v),
		float64(b.key)/g.q.Costs[b.v], int64(b.key), int(b.v))
}

// head is the first entry of the order not yet pulled, keyed by its
// Start count.
func (g *greedy[C]) head() candidate[C] {
	return candidate[C]{g.runs[g.inRun].key, g.order[g.next]}
}

// headMayWin reports whether some entry not yet pulled could precede the
// heap's top. Every such entry has a key (and so a count) no larger than
// the head's, a larger id on an equal key, and — under costs — a cost no
// smaller than minCost; the head at minCost is therefore a bound on all
// of them in the before order, as correctly rounded division is monotone
// in both operands.
func (g *greedy[C]) headMayWin() bool {
	if len(g.q.Costs) == 0 {
		return g.before(g.head(), g.heap[0])
	}
	return g.ratioBefore(g.head(), g.minCost, g.heap[0])
}

// pull moves entries from the head of the order into the heap while the
// heap is empty or the head may still win.
func (g *greedy[C]) pull() {
	for g.next < len(g.order) && (len(g.heap) == 0 || g.headMayWin()) {
		g.heap = append(g.heap, g.head())
		if g.next++; g.next == int(g.runs[g.inRun].end) {
			g.inRun++
		}
		g.pulled++
		g.siftUp(len(g.heap) - 1)
	}
}

func (g *greedy[C]) siftUp(i int) {
	h, e := g.heap, g.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !g.before(e, h[p]) {
			break
		}
		h[i], i = h[p], p
	}
	h[i] = e
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
// no later than its true rank; the entries still in the order are bounded
// by its head (headMayWin). So when the top's key equals its count and
// the head cannot win, the top is the exact argmax, ties included
// (DESIGN.md §18.5). A stale top is re-keyed and sifted; an unaffordable
// one is dropped for good, since spend only grows. Chosen vertices are
// never in the order or the heap.
func (g *greedy[C]) argmax() (int, C, error) {
	spent, budget := g.res.SpentBudget, g.q.Budget
	if !g.q.Budgeted() {
		budget = math.Inf(1)
	} else if spent+g.minCost > budget {
		return -1, 0, nil // not even the cheapest fits: popping all n would say the same
	}
	for {
		if g.pull(); len(g.heap) == 0 {
			return -1, 0, nil
		}
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
}
