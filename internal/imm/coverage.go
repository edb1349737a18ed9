package imm

import (
	"fmt"

	"influmax/internal/graph"
	"influmax/internal/par"
	"influmax/internal/rrr"
)

// The two in-process coverage backends. The store (col), its incidence
// index and the root column are shared immutable state — a serving process
// keeps one copy for all queries — and everything a selection mutates
// (counters, covered bits, scratch) is private to the backend value, so any
// number of concurrent selections never disturb the sketch or each other.
// Purges update worker-owned vertex intervals with no atomics; integer
// decrements commute, so the counters — and therefore the seeds — do not
// depend on the worker count or on the order members decode in.

// localCoverage is what the flat and coded backends share: which samples a
// seed purges is read off the incidence index, never found by scanning.
type localCoverage struct {
	idx   *rrr.Index
	roots []graph.Vertex
	n, p  int

	counter []int32
	covered rrr.Bitset
	matched []int32
}

// begin allocates the selection-private state for count samples and applies
// the audience filter: samples rooted outside the audience are pre-covered
// so neither the counts nor the purges ever see them. It returns the
// excluded mask (nil without a filter) and the eligible sample total.
func (lc *localCoverage) begin(count int, audience []graph.Vertex) (excluded []bool, eligible int64, err error) {
	lc.counter = make([]int32, lc.n)
	lc.covered = rrr.NewBitset(count)
	if len(audience) == 0 {
		return nil, int64(count), nil
	}
	if len(lc.roots) != count {
		return nil, 0, fmt.Errorf("imm: audience query needs %d sample roots, have %d", count, len(lc.roots))
	}
	inAud := make([]bool, lc.n)
	for _, v := range audience {
		inAud[v] = true
	}
	excluded = make([]bool, count)
	for j, r := range lc.roots {
		if inAud[r] {
			eligible++
			continue
		}
		excluded[j] = true
		lc.covered.Set(j)
	}
	return excluded, eligible, nil
}

// uncovered marks v's still-uncovered samples covered and returns them.
// It runs before the parallel decrement, so the workers' reads of the
// bitset are race-free.
func (lc *localCoverage) uncovered(v graph.Vertex) []int32 {
	lc.matched = lc.matched[:0]
	for _, j := range lc.idx.SamplesOf(v) {
		if !lc.covered.Get(int(j)) {
			lc.covered.Set(int(j))
			lc.matched = append(lc.matched, j)
		}
	}
	return lc.matched
}

// End is a no-op: local selections hold nothing beyond their own memory.
func (lc *localCoverage) End() {}

// FlatCoverage is the backend over a flat collection.
type FlatCoverage struct {
	localCoverage
	col *rrr.Collection
}

// NewFlatCoverage returns a backend over col and the index built from it,
// working with p workers. roots is the per-sample root column (see RootAt);
// only audience-filtered selections need it.
func NewFlatCoverage(col *rrr.Collection, idx *rrr.Index, roots []graph.Vertex, p int) *FlatCoverage {
	n := col.NumVertices()
	return &FlatCoverage{localCoverage{idx: idx, roots: roots, n: n, p: clampWorkers(p, n)}, col}
}

// Start counts populations, each worker over its own vertex interval.
func (b *FlatCoverage) Start(audience []graph.Vertex) ([]int32, int64, error) {
	excluded, eligible, err := b.begin(b.col.Count(), audience)
	if err != nil {
		return nil, 0, err
	}
	par.Run(b.p, func(rank int) {
		vl, vh := par.Interval(b.n, b.p, rank)
		b.col.CountRange(b.counter, excluded, graph.Vertex(vl), graph.Vertex(vh))
	})
	return b.counter, eligible, nil
}

// Purge decrements, per worker interval, the members of v's uncovered
// samples: O(degree of v) sample visits instead of Algorithm 4's scan.
func (b *FlatCoverage) Purge(v graph.Vertex) (bool, error) {
	matched := b.uncovered(v)
	if len(matched) == 0 {
		return false, nil
	}
	col, counter := b.col, b.counter
	par.Run(b.p, func(rank int) {
		vl, vh := par.Interval(b.n, b.p, rank)
		for _, j := range matched {
			for _, u := range col.RangeOf(int(j), graph.Vertex(vl), graph.Vertex(vh)) {
				counter[u]--
			}
		}
	})
	return false, nil
}

// CodedCoverage is the backend over a byte-coded collection.
type CodedCoverage struct {
	localCoverage
	col *rrr.CodedCollection
	// decs are per-worker scratch columns (lazily allocated, zero between
	// uses): each worker decodes its share of a sample list into its own
	// column, so the expensive varint decode parallelizes; fold then adds
	// the columns into the shared counters by vertex interval.
	decs [][]int32
}

// NewCodedCoverage is NewFlatCoverage for a byte-coded store.
func NewCodedCoverage(col *rrr.CodedCollection, idx *rrr.Index, roots []graph.Vertex, p int) *CodedCoverage {
	n := col.NumVertices()
	lc := localCoverage{idx: idx, roots: roots, n: n, p: clampWorkers(p, n)}
	return &CodedCoverage{localCoverage: lc, col: col, decs: make([][]int32, lc.p)}
}

// column returns worker rank's scratch column.
func (b *CodedCoverage) column(rank int) []int32 {
	if b.decs[rank] == nil {
		b.decs[rank] = make([]int32, b.n)
	}
	return b.decs[rank]
}

// fold adds sign times the per-worker columns into the counters and
// zeroes them.
func (b *CodedCoverage) fold(sign int32) {
	counter := b.counter
	par.Run(b.p, func(rank int) {
		vl, vh := par.Interval(b.n, b.p, rank)
		for _, d := range b.decs {
			if d == nil {
				continue
			}
			for v := vl; v < vh; v++ {
				if d[v] != 0 {
					counter[v] += sign * d[v]
					d[v] = 0
				}
			}
		}
	})
}

// Start seeds the counters from the index's degree column — exactly the
// population counts, without touching the store — or, under an audience
// filter, recounts over the eligible samples only.
func (b *CodedCoverage) Start(audience []graph.Vertex) ([]int32, int64, error) {
	excluded, eligible, err := b.begin(b.col.Count(), audience)
	if err != nil {
		return nil, 0, err
	}
	if excluded == nil {
		par.Run(b.p, func(rank int) {
			vl, vh := par.Interval(b.n, b.p, rank)
			for v := vl; v < vh; v++ {
				b.counter[v] = int32(b.idx.Degree(graph.Vertex(v)))
			}
		})
	} else {
		par.ForEach(len(excluded), b.p, func(rank, lo, hi int) {
			d := b.column(rank)
			for j := lo; j < hi; j++ {
				if !excluded[j] {
					b.col.AccumMembers(j, d)
				}
			}
		})
		b.fold(+1)
	}
	return b.counter, eligible, nil
}

// Purge decodes v's uncovered samples into the per-worker columns and
// folds them out of the counters.
func (b *CodedCoverage) Purge(v graph.Vertex) (bool, error) {
	matched := b.uncovered(v)
	if len(matched) == 0 {
		return false, nil
	}
	par.ForEach(len(matched), b.p, func(rank, lo, hi int) {
		d := b.column(rank)
		for _, j := range matched[lo:hi] {
			b.col.AccumMembers(int(j), d)
		}
	})
	b.fold(-1)
	return false, nil
}
