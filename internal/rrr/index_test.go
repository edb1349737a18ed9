package rrr

import (
	"slices"
	"testing"

	"influmax/internal/graph"
	"influmax/internal/rng"
)

// randomCollection builds a Collection (and the same sets) of count random
// sorted samples over n vertices.
func randomCollection(seed uint64, n, count int, density float64) (*Collection, [][]graph.Vertex) {
	r := rng.New(rng.NewLCG(seed))
	col := NewCollection(n)
	sets := make([][]graph.Vertex, count)
	for j := range sets {
		for v := 0; v < n; v++ {
			if r.Float64() < density {
				sets[j] = append(sets[j], graph.Vertex(v))
			}
		}
		col.Append(sets[j])
	}
	return col, sets
}

// TestIndexMatchesHypergraph checks the parallel build against the
// incrementally maintained incidence of NaiveStore (the bidirectional
// hypergraph layout), vertex by vertex.
func TestIndexMatchesHypergraph(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		col, sets := randomCollection(uint64(p)*7+1, 40, 120, 0.12)
		hyper := NewNaiveStore(40)
		for _, s := range sets {
			hyper.Append(s)
		}
		idx := BuildIndex(col, p)
		for v := 0; v < 40; v++ {
			want := hyper.SamplesOf(graph.Vertex(v))
			got := idx.SamplesOf(graph.Vertex(v))
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("p=%d v=%d: index %v != hypergraph %v", p, v, got, want)
			}
			if idx.Degree(graph.Vertex(v)) != int64(len(want)) {
				t.Fatalf("p=%d v=%d: degree %d != %d", p, v, idx.Degree(graph.Vertex(v)), len(want))
			}
		}
	}
}

// TestIndexDeterministicAcrossWorkers pins the exact arrays: the build must
// be a pure function of the collection, independent of the worker count.
func TestIndexDeterministicAcrossWorkers(t *testing.T) {
	col, _ := randomCollection(3, 64, 300, 0.08)
	ref := BuildIndex(col, 1)
	for _, p := range []int{2, 4, 7, 16, 100} {
		idx := BuildIndex(col, p)
		if !slices.Equal(idx.offsets, ref.offsets) || !slices.Equal(idx.samples, ref.samples) {
			t.Fatalf("p=%d: index differs from p=1 build", p)
		}
	}
}

// TestIndexSortedPerVertex verifies each incidence list ascends (the
// property the ascending-j fill pass guarantees without a sort).
func TestIndexSortedPerVertex(t *testing.T) {
	col, _ := randomCollection(9, 30, 200, 0.2)
	idx := BuildIndex(col, 4)
	for v := 0; v < 30; v++ {
		inc := idx.SamplesOf(graph.Vertex(v))
		if !slices.IsSorted(inc) {
			t.Fatalf("v=%d incidence not ascending: %v", v, inc)
		}
	}
}

// TestIndexEdgeCases covers the par.Interval boundary shapes: more workers
// than vertices, a single vertex, an empty collection, and a zero-vertex
// universe.
func TestIndexEdgeCases(t *testing.T) {
	// n < p: 3 vertices, 16 workers.
	col := NewCollection(3)
	col.Append([]graph.Vertex{0, 2})
	col.Append([]graph.Vertex{1})
	col.Append([]graph.Vertex{0, 1, 2})
	idx := BuildIndex(col, 16)
	if !slices.Equal(idx.SamplesOf(0), []int32{0, 2}) ||
		!slices.Equal(idx.SamplesOf(1), []int32{1, 2}) ||
		!slices.Equal(idx.SamplesOf(2), []int32{0, 2}) {
		t.Fatalf("n<p incidence wrong: %v %v %v",
			idx.SamplesOf(0), idx.SamplesOf(1), idx.SamplesOf(2))
	}

	// Empty collection over a nonzero universe.
	empty := BuildIndex(NewCollection(5), 4)
	if empty.NumVertices() != 5 || len(empty.SamplesOf(4)) != 0 {
		t.Fatal("empty collection index not empty")
	}

	// n == 0 universe.
	zero := BuildIndex(NewCollection(0), 4)
	if zero.NumVertices() != 0 || zero.Bytes() <= 0 {
		t.Fatalf("n=0 index malformed: n=%d bytes=%d", zero.NumVertices(), zero.Bytes())
	}

	// Single vertex, many workers.
	one := NewCollection(1)
	one.Append([]graph.Vertex{0})
	oneIdx := BuildIndex(one, 8)
	if !slices.Equal(oneIdx.SamplesOf(0), []int32{0}) {
		t.Fatalf("single-vertex incidence: %v", oneIdx.SamplesOf(0))
	}
}

// mutateSamples returns a copy of col with the samples in changed replaced
// by fresh random sorted sets (possibly empty, possibly overlapping the
// originals — the patch must handle a regenerated sample keeping some
// members).
func mutateSamples(col *Collection, changed []int32, seed uint64, density float64) *Collection {
	r := rng.New(rng.NewLCG(seed))
	out := NewCollection(col.NumVertices())
	ci := 0
	for id := 0; id < col.Count(); id++ {
		if ci < len(changed) && int(changed[ci]) == id {
			ci++
			var set []graph.Vertex
			for v := 0; v < col.NumVertices(); v++ {
				if r.Float64() < density {
					set = append(set, graph.Vertex(v))
				}
			}
			out.Append(set)
			continue
		}
		out.Append(col.Sample(id))
	}
	return out
}

// TestPatchIndexMatchesBuild pins the patch against the ground truth: for
// random collections, random changed subsets and every worker count, the
// patched index must be byte-identical to a fresh BuildIndex over the
// mutated collection.
func TestPatchIndexMatchesBuild(t *testing.T) {
	for _, tc := range []struct {
		seed     uint64
		n, count int
		nChanged int
	}{
		{1, 40, 120, 1},
		{2, 40, 120, 7},
		{3, 64, 300, 30},
		{4, 10, 50, 50}, // every sample changed
		{5, 3, 20, 4},   // n < p for the larger worker counts
	} {
		col, _ := randomCollection(tc.seed, tc.n, tc.count, 0.12)
		r := rng.New(rng.NewLCG(tc.seed * 77))
		changed := make([]int32, 0, tc.nChanged)
		for _, id := range r.Perm(tc.count)[:tc.nChanged] {
			changed = append(changed, int32(id))
		}
		slices.Sort(changed)
		next := mutateSamples(col, changed, tc.seed*13+5, 0.15)
		for _, p := range []int{1, 2, 3, 8, 64} {
			idx := BuildIndex(col, p)
			want := BuildIndex(next, p)
			got := PatchIndex(idx, col, next, changed, p)
			if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.samples, want.samples) {
				t.Fatalf("seed=%d p=%d changed=%v: patched index differs from rebuild",
					tc.seed, p, changed)
			}
		}
	}
}

// TestPatchIndexNoChanges verifies the empty-changed fast path shares the
// immutable index instead of copying it.
func TestPatchIndexNoChanges(t *testing.T) {
	col, _ := randomCollection(21, 30, 80, 0.1)
	idx := BuildIndex(col, 4)
	if got := PatchIndex(idx, col, col, nil, 4); got != idx {
		t.Fatal("PatchIndex with no changed samples must return the index unchanged")
	}
}

// TestIndexBytes checks the accounting: 4 bytes per association plus the
// offsets array, i.e. half a NaiveStore's incidence overhead structure-for-
// structure (no per-vertex slice headers).
func TestIndexBytes(t *testing.T) {
	col, _ := randomCollection(11, 20, 50, 0.15)
	idx := BuildIndex(col, 2)
	want := col.TotalSize()*4 + int64(21)*8
	if idx.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d", idx.Bytes(), want)
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	if len(b) != 3 {
		t.Fatalf("130 bits packed into %d words, want 3", len(b))
	}
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	// Neighbors unaffected.
	for _, i := range []int{2, 62, 66, 127} {
		if b.Get(i) {
			t.Fatalf("bit %d set spuriously", i)
		}
	}
	if len(NewBitset(0)) != 0 {
		t.Fatal("0-bit bitset not empty")
	}
}

// TestBuildIndexCodedMatchesPlain pins the store-agnostic build core:
// indexing a coded store — under either labeling — yields exactly the
// arrays of indexing the equivalent plain Collection, for every worker
// count. The index lives in original-id space, so a frequency relabeling
// must not leak into it.
func TestBuildIndexCodedMatchesPlain(t *testing.T) {
	col, _ := randomCollection(11, 50, 160, 0.15)
	for _, relab := range []*Relabeling{nil, NewRelabeling(IncidenceOf(col, 3))} {
		coded := FromCollection(col, relab)
		for _, p := range []int{1, 2, 3, 8, 64} {
			want := BuildIndex(col, p)
			got := BuildIndexCoded(coded, p)
			if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.samples, want.samples) {
				t.Fatalf("relabeled=%v p=%d: coded index differs from plain build", relab != nil, p)
			}
		}
	}
}

// sameIndex compares every field of two indexes.
func sameIndex(a, b *Index) bool {
	return a.count == b.count && slices.Equal(a.offsets, b.offsets) && slices.Equal(a.samples, b.samples)
}

// TestExtendIndexMatchesBuild pins the incremental build: extending the
// index of the first m samples over the rest yields exactly BuildIndex of
// the whole collection, at every split point and worker count, from a
// flat store (ExtendIndex) and from a coded one under either labeling
// (ExtendIndexCoded). At m = Count the base comes back as is.
func TestExtendIndexMatchesBuild(t *testing.T) {
	col, _ := randomCollection(13, 50, 170, 0.15)
	want := BuildIndex(col, 1)
	for _, m := range []int{0, col.Count() / 2, col.Count()} {
		for _, p := range []int{1, 2, 4} {
			base := BuildIndex(col.Range(0, m), p)
			if base.Count() != m {
				t.Fatalf("m=%d: base covers %d samples", m, base.Count())
			}
			got := ExtendIndex(base, col, p)
			if !sameIndex(got, want) {
				t.Fatalf("m=%d p=%d: extended index differs from a fresh build", m, p)
			}
			if m == col.Count() && got != base {
				t.Fatalf("p=%d: extending over no new samples rebuilt the index", p)
			}
			for _, relab := range []*Relabeling{nil, NewRelabeling(IncidenceOf(col, p))} {
				coded := FromCollection(col, relab)
				got := ExtendIndexCoded(base, coded, p)
				if !sameIndex(got, want) {
					t.Fatalf("m=%d p=%d relabeled=%v: coded extension differs from a fresh build", m, p, relab != nil)
				}
			}
		}
	}
	if got := ExtendIndex(nil, col, 3); !sameIndex(got, want) {
		t.Fatal("extending no index differs from a fresh build")
	}
}

// TestIndexRangeMatchesCodedBuild pins the range cut a shard takes its
// index by: ids [lo, hi) of the whole draw's index, rebased to 0, equal
// the index built over the range's own coded store, under either
// labeling.
func TestIndexRangeMatchesCodedBuild(t *testing.T) {
	col, _ := randomCollection(17, 40, 150, 0.2)
	idx := BuildIndex(col, 2)
	for _, r := range [][2]int{{0, 0}, {0, 150}, {0, 37}, {37, 100}, {100, 150}, {149, 150}} {
		lo, hi := r[0], r[1]
		sub := col.Range(lo, hi)
		for _, relab := range []*Relabeling{nil, NewRelabeling(IncidenceOf(sub, 2))} {
			want := BuildIndexCoded(FromCollection(sub, relab), 2)
			for _, p := range []int{1, 2, 4} {
				if got := idx.Range(lo, hi, p); !sameIndex(got, want) {
					t.Fatalf("[%d, %d) p=%d relabeled=%v: range cut differs from the range's own build",
						lo, hi, p, relab != nil)
				}
			}
		}
	}
}
