package imm

import (
	"fmt"
	"math"

	"influmax/internal/graph"
	"influmax/internal/par"
	"influmax/internal/rng"
	"influmax/internal/rrr"
)

// Sketch-space query diversity (ROADMAP item 4, DESIGN.md §17): the theta
// RRR samples behind SelectSeeds answer more questions than plain top-k.
// Query captures the four shapes immserve exposes — budgeted/cost-aware
// selection, targeted (audience-rooted) influence, competitive selection
// against a rival's blocked seeds, and direct spread estimation of a given
// set. All of them are policy on the one selection engine (greedy.go); a
// zero-value Query (only K set) is byte-identical to the plain selection
// at any worker count.

// Query is one sketch-space selection request.
type Query struct {
	// K bounds the seed count (budgeted selections may stop earlier when
	// no remaining vertex is affordable).
	K int
	// Costs is the per-vertex selection cost (len == NumVertices; every
	// entry positive and finite). nil with Budget > 0 means unit costs.
	// Setting Costs requires Budget > 0.
	Costs []float64
	// Budget caps the total cost of the selected set; 0 disables
	// cost-aware selection. Under a budget the greedy argmax ranks
	// vertices by marginal-gain-per-cost (ties: larger gain, then lower
	// vertex id) — the CELF cost-benefit rule, exact here because sketch
	// counters are exact marginal coverage gains.
	Budget float64
	// Audience, when non-empty, restricts the objective to influence ON
	// these vertices: only samples rooted in the audience count (targeted
	// influence — a sample's root is the vertex whose activation the
	// sample witnesses). Requires sample roots (PerSample RNG builds).
	Audience []graph.Vertex
	// Blocked lists a rival's seeds: they are excluded from candidacy and
	// the samples they already cover are purged before greedy starts
	// (competitive selection — gains count only incremental coverage).
	Blocked []graph.Vertex
}

// Plain reports whether q is exactly the classic top-k selection.
func (q Query) Plain() bool {
	return q.Budget == 0 && len(q.Costs) == 0 && len(q.Audience) == 0 && len(q.Blocked) == 0
}

// Budgeted reports whether cost-aware selection is active.
func (q Query) Budgeted() bool { return q.Budget > 0 || len(q.Costs) > 0 }

// Validate checks q against a store of n vertices.
func (q Query) Validate(n int) error {
	if q.K < 1 || q.K > n {
		return fmt.Errorf("imm: query k = %d out of [1, %d]", q.K, n)
	}
	if len(q.Costs) > 0 {
		if q.Budget <= 0 {
			return fmt.Errorf("imm: query costs need a positive budget")
		}
		if len(q.Costs) != n {
			return fmt.Errorf("imm: query has %d costs, store has %d vertices", len(q.Costs), n)
		}
		for v, c := range q.Costs {
			if !(c > 0) || math.IsInf(c, 1) {
				return fmt.Errorf("imm: cost of vertex %d is %v, want positive and finite", v, c)
			}
		}
	}
	if q.Budget < 0 || math.IsInf(q.Budget, 0) || math.IsNaN(q.Budget) {
		return fmt.Errorf("imm: query budget %v, want finite and >= 0", q.Budget)
	}
	for _, v := range q.Audience {
		if int(v) >= n {
			return fmt.Errorf("imm: audience vertex %d out of range (n = %d)", v, n)
		}
	}
	for _, v := range q.Blocked {
		if int(v) >= n {
			return fmt.Errorf("imm: blocked vertex %d out of range (n = %d)", v, n)
		}
	}
	return nil
}

// QueryResult is one query's outcome.
type QueryResult struct {
	// Seeds is the selected set in greedy order; Gains[i] is Seeds[i]'s
	// marginal covered-sample count (over the eligible samples).
	Seeds []graph.Vertex
	Gains []int64
	// Covered is the eligible samples the seeds cover (excluding anything
	// a blocked rival had already covered); Eligible is the samples that
	// pass the audience filter (the whole store without one). The spread
	// estimate over the audience is n * Covered / TotalSamples.
	Covered  int64
	Eligible int64
	// SpentBudget is the summed cost of Seeds (len(Seeds) when unit
	// costs; 0 for non-budgeted queries).
	SpentBudget float64
}

// rootAt re-derives the root vertex of global sample `index` for a
// PerSample-mode build over n vertices and stream seed `seed`: the root is
// the sample stream's first draw, so it is a pure function of (seed,
// index, n) and never needs storing. Valid across dynamic-sketch epochs —
// incremental maintenance regenerates samples with their original streams.
func rootAt(seed, index uint64, n int) graph.Vertex {
	return graph.Vertex(rng.New(rng.Derive(seed, index)).Intn(n))
}

// RootsRange derives the roots of global samples [first, first+count)
// with p workers — the root column of a sketch (first 0) or of a shard's
// id range.
func RootsRange(seed, first uint64, count, n, p int) []graph.Vertex {
	roots := make([]graph.Vertex, count)
	par.ForEach(count, p, func(_, lo, hi int) {
		gen := new(rng.SplitMix64)
		r := rng.New(gen)
		for i := lo; i < hi; i++ {
			gen.Reseed(seed, first+uint64(i))
			roots[i] = graph.Vertex(r.Intn(n))
		}
	})
	return roots
}

// SelectQueryIndexed answers q over a flat collection and its incidence
// index. roots is the per-sample root column (see rootAt); it is required
// only for audience-filtered queries and may be nil otherwise. A plain q
// returns exactly SelectSeedsIndexed's seeds, byte-identically, at any
// worker count.
func SelectQueryIndexed(col *rrr.Collection, idx *rrr.Index, roots []graph.Vertex, q Query, p int) (*QueryResult, error) {
	if err := q.Validate(col.NumVertices()); err != nil {
		return nil, err
	}
	return Greedy(NewFlatCoverage(col, idx, roots, p), col.NumVertices(), q, nil)
}

// SelectQuerySketch answers q over a resident byte-coded sketch (see
// coverage.go for why concurrent queries never disturb each other). A
// plain q returns exactly SelectSeedsSketch's seeds, byte-identically.
func SelectQuerySketch(col *rrr.CodedCollection, idx *rrr.Index, roots []graph.Vertex, q Query, p int) (*QueryResult, error) {
	if err := q.Validate(col.NumVertices()); err != nil {
		return nil, err
	}
	return Greedy(NewCodedCoverage(col, idx, roots, p), col.NumVertices(), q, nil)
}

// CoverageOf is the exposed CountAll estimator: the number of samples a
// given seed set covers, read off the incidence index without decoding a
// single sample. sampleCount is the store's sample count; roots and
// audience optionally restrict the estimate to audience-rooted samples
// (eligible reports how many pass the filter; it equals sampleCount
// without one). The unbiased spread estimate is n * covered / sampleCount
// — and n * covered/sampleCount restricted-to-audience for targeted
// queries, since roots are uniform over all n vertices. Its covered
// bitset and audience mask come from the selections' pool and are filled
// as a selection's are, a word at a time, so a warm call allocates
// neither.
func CoverageOf(sampleCount int, idx *rrr.Index, roots []graph.Vertex, seeds, audience []graph.Vertex) (covered, eligible int64, err error) {
	n := idx.NumVertices()
	for _, v := range seeds {
		if int(v) >= n {
			return 0, 0, fmt.Errorf("imm: seed vertex %d out of range (n = %d)", v, n)
		}
	}
	for _, v := range audience {
		if int(v) >= n {
			return 0, 0, fmt.Errorf("imm: audience vertex %d out of range (n = %d)", v, n)
		}
	}
	lc := localCoverage{idx: idx, roots: roots, n: n}
	defer lc.End()
	if eligible, err = lc.begin(sampleCount, audience); err != nil {
		return 0, 0, err
	}
	for _, s := range seeds {
		for _, j := range idx.SamplesOf(s) {
			if !lc.covered.Get(int(j)) {
				lc.covered.Set(int(j))
				covered++
			}
		}
	}
	return covered, eligible, nil
}
