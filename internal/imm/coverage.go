package imm

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"influmax/internal/graph"
	"influmax/internal/par"
	"influmax/internal/rrr"
)

// The in-process coverage backends. The store (col or the matrix), its
// incidence index and the root column are shared immutable state — a serving process
// keeps one copy for all queries — and everything a selection mutates
// (localState) is private to the backend value between Start and End, so
// any number of concurrent selections never disturb the sketch or each
// other. Integer decrements commute, so the counters — and therefore the
// seeds — do not depend on the worker count or on the order members decode
// in.

// localCoverage is what the local backends share: the pooled selection
// state and, for the list stores, the incidence index which samples a
// seed purges is read off, never found by scanning (the bit matrix is its
// own index, and CoverageOf borrows only the state).
type localCoverage struct {
	idx   *rrr.Index
	roots []graph.Vertex
	n, p  int
	*localState
}

// localState is the memory one selection mutates. It comes from a pool
// and goes back in End, so a served query allocates none of its O(n) and
// O(theta) state; admission bounds how many are out (DESIGN.md §11).
type localState struct {
	counter []int32
	covered rrr.Bitset
	matched []int32
	inAud   []bool  // begin's audience membership, all false between uses
	decs    []int32 // CodedCoverage.apply's p columns of n, dropped in End
}

var localStatePool = sync.Pool{New: func() any { return new(localState) }}

// zeroed returns s resized to n zero elements, reusing its memory when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// begin takes the selection-private state for count samples and applies
// the audience filter: samples rooted outside the audience are pre-covered
// so neither the counts nor the purges ever see them. Under a filter it
// sets every covered bit a word at a time, clears the eligible samples'
// bits and leaves their ids, ascending, in matched. It returns the
// eligible sample total. The counts come back sized but not cleared:
// every Start writes each of them.
func (lc *localCoverage) begin(count int, audience []graph.Vertex) (eligible int64, err error) {
	if lc.localState == nil {
		lc.localState = localStatePool.Get().(*localState)
	}
	lc.counter = slices.Grow(lc.counter[:0], lc.n)[:lc.n]
	words := (count + 63) / 64
	if len(audience) == 0 {
		lc.covered = zeroed(lc.covered, words)
		return int64(count), nil
	}
	if len(lc.roots) != count {
		return 0, fmt.Errorf("imm: audience query needs %d sample roots, have %d", count, len(lc.roots))
	}
	lc.covered = slices.Grow(lc.covered[:0], words)[:words]
	for w := range lc.covered {
		lc.covered[w] = ^uint64(0)
	}
	if len(lc.inAud) != lc.n {
		lc.inAud = zeroed(lc.inAud, lc.n)
	}
	for _, v := range audience {
		lc.inAud[v] = true
	}
	ids := lc.matched[:0]
	for j, r := range lc.roots {
		if lc.inAud[r] {
			lc.covered[j>>6] &^= 1 << (uint(j) & 63)
			ids = append(ids, int32(j))
		}
	}
	for _, v := range audience {
		lc.inAud[v] = false
	}
	lc.matched = ids
	return int64(len(ids)), nil
}

// degrees sets the counts to the index's degree column: exactly the
// population counts, without touching the store.
func (lc *localCoverage) degrees() {
	for v := range lc.counter {
		lc.counter[v] = int32(lc.idx.Degree(graph.Vertex(v)))
	}
}

// uncovered marks v's still-uncovered samples covered and returns them,
// ascending. It runs before any parallel decrement, so the workers' reads
// of the bitset are race-free.
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

// End returns the selection's state to the pool; the counts Start handed
// out are void from here on. The decs slab (p·n counters, held only after
// a purge in the paper's regime of huge samples) is dropped rather than
// pooled, so a pooled state costs O(n + theta) whatever it served.
func (lc *localCoverage) End() {
	if lc.localState != nil {
		lc.decs = nil
		localStatePool.Put(lc.localState)
		lc.localState = nil
	}
}

// FlatCoverage is the backend over a flat collection.
type FlatCoverage struct {
	localCoverage
	col *rrr.Collection
}

// NewFlatCoverage returns a backend over col and the index built from it,
// working with p workers. roots is the per-sample root column (see rootAt);
// only audience-filtered selections need it.
func NewFlatCoverage(col *rrr.Collection, idx *rrr.Index, roots []graph.Vertex, p int) *FlatCoverage {
	n := col.NumVertices()
	return &FlatCoverage{localCoverage{idx: idx, roots: roots, n: n, p: clampWorkers(p, n)}, col}
}

// Start counts populations, each worker over its own vertex interval.
func (b *FlatCoverage) Start(audience []graph.Vertex) ([]int32, int64, error) {
	eligible, err := b.begin(b.col.Count(), audience)
	if err != nil {
		return nil, 0, err
	}
	var covered rrr.Bitset
	if len(audience) > 0 {
		covered = b.covered
	}
	par.Run(b.p, func(rank int) {
		vl, vh := par.Interval(b.n, b.p, rank)
		clear(b.counter[vl:vh])
		b.col.CountRange(b.counter, covered, graph.Vertex(vl), graph.Vertex(vh))
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
}

// NewCodedCoverage is NewFlatCoverage for a byte-coded store.
func NewCodedCoverage(col *rrr.CodedCollection, idx *rrr.Index, roots []graph.Vertex, p int) *CodedCoverage {
	n := col.NumVertices()
	return &CodedCoverage{localCoverage{idx: idx, roots: roots, n: n, p: clampWorkers(p, n)}, col}
}

// apply adds sign to the counter of every member of the listed samples
// (ascending ids, so a decoder runs through them). A list expected to
// carry fewer than n entries — its length times the store's mean sample
// size — is decoded here and now, straight into the counters: the cost is
// the entries it touches. A longer one (the paper's regime of few, huge
// samples) is worth p workers, each decoding its share into a scratch
// column of its own, and one O(p·n) fold of the columns (DESIGN.md §13.5).
func (b *CodedCoverage) apply(ids []int32, sign int32) {
	if len(ids) == 0 || int64(len(ids))*b.col.TotalSize() < int64(b.n)*int64(b.col.Count()) {
		d := b.col.Run()
		for _, j := range ids {
			d.Accum(int(j), b.counter, sign)
		}
		return
	}
	if len(b.decs) != b.p*b.n {
		b.decs = zeroed(b.decs, b.p*b.n)
	}
	par.ForEach(len(ids), b.p, func(rank, lo, hi int) {
		d, column := b.col.Run(), b.decs[rank*b.n:][:b.n]
		for _, j := range ids[lo:hi] {
			d.Accum(int(j), column, 1)
		}
	})
	b.fold(sign)
}

// fold adds sign times the per-worker columns into the counters and
// zeroes them.
func (b *CodedCoverage) fold(sign int32) {
	par.Run(b.p, func(rank int) {
		vl, vh := par.Interval(b.n, b.p, rank)
		for column := b.decs; len(column) > 0; column = column[b.n:] {
			for v := vl; v < vh; v++ {
				if column[v] != 0 {
					b.counter[v] += sign * column[v]
					column[v] = 0
				}
			}
		}
	})
}

// Start seeds the counters from the index's degree column — exactly the
// population counts, without touching the store — or, under an audience
// filter, recounts over the eligible samples only.
func (b *CodedCoverage) Start(audience []graph.Vertex) ([]int32, int64, error) {
	eligible, err := b.begin(b.col.Count(), audience)
	if err != nil {
		return nil, 0, err
	}
	if len(audience) == 0 {
		b.degrees()
		return b.counter, eligible, nil
	}
	clear(b.counter)
	b.apply(b.matched, +1)
	return b.counter, eligible, nil
}

// Purge takes v's uncovered samples out of the counters.
func (b *CodedCoverage) Purge(v graph.Vertex) (bool, error) {
	b.apply(b.uncovered(v), -1)
	return false, nil
}

// recountSparsity is the density rule's one constant: a selection
// recounts while its samples' mean size is below n/recountSparsity. It is
// read off BenchmarkSelectDensity's sweep (EXPERIMENTS.md): on the
// served graph recounting still wins by a seventh at a mean size of
// n/1400 and loses by an eighth at n/830.
const recountSparsity = 1000

// PreferRecount is the density rule: it reports whether a selection over
// idx without an audience costs less on IndexCoverage than on a
// decrementing backend — whether the mean sample size is below
// n/recountSparsity.
func PreferRecount(idx *rrr.Index) bool {
	return idx.Entries()*recountSparsity < int64(idx.Count())*int64(idx.NumVertices())
}

// IndexCoverage is the recounting backend (DESIGN.md §18.1): it reads
// the incidence index and nothing else. Start takes the counts off the
// degree column, Purge only sets v's samples' covered bits, and Recount
// counts a vertex's postings that are not yet covered. It holds no store,
// so it never decodes a sample: a selection costs the postings of the
// heap tops it recounts instead of the members of every sample it
// covers, the better trade while samples are small next to n
// (PreferRecount). It keeps no count between recounts: in the served
// regime one recount in forty or fewer would find one still current.
// It serves no audience — an audience query's postings are mostly
// excluded samples, and it keeps decrementing.
type IndexCoverage struct {
	localCoverage
}

// NewIndexCoverage returns the recounting backend over idx.
func NewIndexCoverage(idx *rrr.Index) *IndexCoverage {
	return &IndexCoverage{localCoverage{idx: idx, n: idx.NumVertices(), p: 1}}
}

// Start copies the index's degree column into the counts.
func (b *IndexCoverage) Start(audience []graph.Vertex) ([]int32, int64, error) {
	if len(audience) > 0 {
		return nil, 0, errors.New("imm: the recounting backend takes no audience")
	}
	eligible, _ := b.begin(b.idx.Count(), nil)
	b.degrees()
	return b.counter, eligible, nil
}

// Purge sets the covered bits of v's samples. No count moves.
func (b *IndexCoverage) Purge(v graph.Vertex) (bool, error) {
	for _, j := range b.idx.SamplesOf(v) {
		b.covered.Set(int(j))
	}
	return false, nil
}

// Recount counts each vertex's postings whose covered bit is clear,
// branch-free.
func (b *IndexCoverage) Recount(vs []graph.Vertex, out []int32) error {
	covered := b.covered
	for i, v := range vs {
		var c uint64
		for _, j := range b.idx.SamplesOf(v) {
			c += ^(covered[uint32(j)>>6] >> (uint32(j) & 63)) & 1
		}
		out[i] = int32(c)
	}
	return nil
}

// MatrixCoverage is the recounting backend over a bit matrix (DESIGN.md
// §13.6, §18.1), the store of a dense draw: rows hold every sample as one
// lane bit per vertex, so the matrix is its own index. Start is a
// popcount pass over the rows, split across the workers by vertex
// interval; Purge ORs the seed's word of every block into the covered
// bitset, whose word b is block b's lanes; Recount is the popcount of a
// vertex's words with the covered lanes masked out. Each of the last two
// costs one word per 64 samples, not one operation per member or posting.
// It serves no audience, as IndexCoverage does not.
type MatrixCoverage struct {
	localCoverage
	m *rrr.Matrix
}

// newMatrixCoverage returns the recounting backend over m, counting with
// p workers.
func newMatrixCoverage(m *rrr.Matrix, p int) *MatrixCoverage {
	n := m.NumVertices()
	return &MatrixCoverage{localCoverage{n: n, p: clampWorkers(p, n)}, m}
}

// Start counts every vertex's samples: the popcount of its words.
func (b *MatrixCoverage) Start(audience []graph.Vertex) ([]int32, int64, error) {
	if len(audience) > 0 {
		return nil, 0, errors.New("imm: the matrix backend takes no audience")
	}
	eligible, _ := b.begin(b.m.Count(), nil)
	par.Run(b.p, func(rank int) {
		vl, vh := par.Interval(b.n, b.p, rank)
		counter := b.counter[vl:vh]
		clear(counter)
		for blk := range b.m.Blocks() {
			for i, w := range b.m.Row(blk)[vl:vh] {
				counter[i] += int32(bits.OnesCount64(w))
			}
		}
	})
	return b.counter, eligible, nil
}

// Purge marks v's samples covered, a word per block. No count moves.
func (b *MatrixCoverage) Purge(v graph.Vertex) (bool, error) {
	for blk := range b.covered {
		b.covered[blk] |= b.m.Row(blk)[v]
	}
	return false, nil
}

// Recount counts each vertex's samples whose covered bit is clear.
func (b *MatrixCoverage) Recount(vs []graph.Vertex, out []int32) error {
	for i, v := range vs {
		var c int
		for blk, cw := range b.covered {
			c += bits.OnesCount64(b.m.Row(blk)[v] &^ cw)
		}
		out[i] = int32(c)
	}
	return nil
}
