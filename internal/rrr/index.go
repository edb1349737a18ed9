package rrr

import (
	"fmt"
	"slices"

	"influmax/internal/graph"
	"influmax/internal/par"
)

// Index is the CSR vertex -> sample-ids inverted incidence of a Collection:
// SamplesOf(v) lists, ascending, the ids of every sample containing v. It is
// the lookup structure that turns Algorithm 4's purge step — "remove every
// sample containing the chosen seed" — from a scan over all |R| samples into
// a direct walk of the seed's incidence list, the strategy of HBMax and of
// the sequential NaiveStore baseline, but kept beside the compact
// one-directional store so sampling keeps its halved memory footprint.
//
// Unlike NaiveStore, which maintains per-vertex slices incrementally during
// Append (one allocation-prone slice per vertex), Index is two flat arrays.
// Sample ids only grow, so the index of ids [0, m) extends to the index of
// [0, m') by copying each vertex's list and appending the new ids
// (ExtendIndex): a draw indexes each sample exactly once, however many
// estimation rounds re-select over it. An Index is immutable once built.
type Index struct {
	offsets []int64 // len = NumVertices()+1
	samples []int32 // concatenated ascending sample ids; len = Entries()
	count   int     // the index covers sample ids [0, count)
}

// BuildIndex constructs the inverted incidence of col with p workers
// (p <= 0 uses the default). The build is the two-pass count / prefix-sum /
// fill scheme over interval-partitioned workers: every worker owns a
// contiguous vertex interval and touches only its own slots in every pass,
// so no atomics are needed — the same ownership discipline Algorithm 4 uses
// for its counter updates.
func BuildIndex(col *Collection, p int) *Index {
	return ExtendIndex(nil, col, p)
}

// ExtendIndex returns the index of col given idx, the index of col's first
// idx.Count() samples (nil for none): byte-identical to BuildIndex(col, p),
// but only the samples past idx.Count() are visited. idx itself is
// returned when col has no new samples.
func ExtendIndex(idx *Index, col *Collection, p int) *Index {
	return buildIndex(idx, col.NumVertices(), col.Count(), p,
		func(j int, vl, vh graph.Vertex, visit func(graph.Vertex)) {
			for _, u := range col.RangeOf(j, vl, vh) {
				visit(u)
			}
		})
}

// BuildIndexCoded constructs the inverted incidence of a byte-coded
// store, byte-identical to BuildIndex over an equivalent plain Collection
// for every worker count: the index lives in original-id space regardless
// of the store's labeling, because visitRange filters on original ids and
// each vertex's sample list is kept sorted by the ascending sample loop
// alone. Workers decode each sample instead of binary-searching it, so
// the build costs one extra decode pass per worker. The sampling pipelines
// extend the index they drew instead; this build serves a snapshot that
// carries samples but no index.
func BuildIndexCoded(col *CodedCollection, p int) *Index {
	return ExtendIndexCoded(nil, col, p)
}

// ExtendIndexCoded is ExtendIndex over a byte-coded store: the index of
// col given idx, the index of its first idx.Count() samples (nil for
// none), decoding only the samples past idx.Count().
func ExtendIndexCoded(idx *Index, col *CodedCollection, p int) *Index {
	return buildIndex(idx, col.NumVertices(), col.Count(), p, col.visitRange)
}

// buildIndex is the store-agnostic core of every build: the index of
// samples [0, count) from base, the index of samples [0, base.count) (nil
// for none). rangeOf must invoke visit for every member of sample j
// falling in [vl, vh), ascending — the only store access the scheme needs.
// Counts start at base's degrees and the fill copies base's list ahead of
// the new ids, so each vertex's list stays ascending.
func buildIndex(base *Index, n, count, p int, rangeOf func(j int, vl, vh graph.Vertex, visit func(graph.Vertex))) *Index {
	from := 0
	if base != nil {
		if base.count > count || base.NumVertices() != n {
			panic("rrr: base index does not cover a prefix of the collection")
		}
		if base.count == count {
			return base
		}
		from = base.count
	}
	idx := &Index{offsets: make([]int64, n+1), count: count}
	if n == 0 || count == 0 {
		return idx
	}
	p = clampWorkers(p, n)

	// Pass 1: per-vertex incidence counts. Each worker navigates to its
	// interval within every new sorted sample and increments only the
	// counters it owns (offsets[v+1] doubles as the count slot). One visit
	// closure per worker, not per sample: a closure handed to rangeOf
	// escapes to the heap.
	counts := idx.offsets[1:]
	par.Run(p, func(rank int) {
		vl, vh := par.Interval(n, p, rank)
		if base != nil {
			for v := vl; v < vh; v++ {
				counts[v] = base.Degree(graph.Vertex(v))
			}
		}
		visit := func(u graph.Vertex) { counts[u]++ }
		for j := from; j < count; j++ {
			rangeOf(j, graph.Vertex(vl), graph.Vertex(vh), visit)
		}
	})
	prefixSum(counts, p)

	// Pass 2: fill. idx.offsets[v] is the start of v's list and next[v]
	// tracks the cursor, placed past the copy of base's list; iterating
	// samples in ascending j keeps each vertex's list sorted without a
	// final sort pass. Workers again write only slots owned via their
	// vertex interval.
	idx.samples = make([]int32, idx.offsets[n])
	next := make([]int64, n)
	par.Run(p, func(rank int) {
		vl, vh := par.Interval(n, p, rank)
		for v := vl; v < vh; v++ {
			next[v] = idx.offsets[v]
			if base != nil {
				next[v] += int64(copy(idx.samples[next[v]:], base.SamplesOf(graph.Vertex(v))))
			}
		}
		var j int
		visit := func(u graph.Vertex) {
			idx.samples[next[u]] = int32(j)
			next[u]++
		}
		for j = from; j < count; j++ {
			rangeOf(j, graph.Vertex(vl), graph.Vertex(vh), visit)
		}
	})
	return idx
}

// clampWorkers resolves p (<= 0: the default) to at most n workers.
func clampWorkers(p, n int) int {
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	return min(p, n)
}

// prefixSum turns per-vertex counts into their inclusive running sums in
// place — offsets[1:] of a CSR whose offsets[0] is 0. Two-level: each of
// p workers scans its vertex interval into a local running sum, the p
// interval totals are exclusive-scanned serially, and each worker rebases
// its interval, so every slot stays worker-owned.
func prefixSum(counts []int64, p int) {
	n := len(counts)
	bases := make([]int64, p+1)
	par.Run(p, func(rank int) {
		vl, vh := par.Interval(n, p, rank)
		var sum int64
		for v := vl; v < vh; v++ {
			sum += counts[v]
			counts[v] = sum
		}
		bases[rank+1] = sum
	})
	for r := 1; r <= p; r++ {
		bases[r] += bases[r-1]
	}
	par.Run(p, func(rank int) {
		vl, vh := par.Interval(n, p, rank)
		for v := vl; v < vh; v++ {
			counts[v] += bases[rank]
		}
	})
}

// Range returns the index of sample ids [lo, hi) rebased to 0 — the index
// of col.Range(lo, hi) when x indexes col, under any labeling of its store —
// cut with p workers: each vertex's window is found by binary search in its
// ascending list and copied shifted by -lo.
func (x *Index) Range(lo, hi, p int) *Index {
	if lo < 0 || lo > hi || hi > x.count {
		panic(fmt.Sprintf("rrr: index range [%d, %d) out of [0, %d)", lo, hi, x.count))
	}
	n := x.NumVertices()
	out := &Index{offsets: make([]int64, n+1), count: hi - lo}
	if n == 0 {
		return out
	}
	p = clampWorkers(p, n)
	counts := out.offsets[1:]
	first := make([]int64, n) // position of v's first id >= lo in its list
	par.Run(p, func(rank int) {
		vl, vh := par.Interval(n, p, rank)
		for v := vl; v < vh; v++ {
			s := x.SamplesOf(graph.Vertex(v))
			a, _ := slices.BinarySearch(s, int32(lo))
			b, _ := slices.BinarySearch(s[a:], int32(hi))
			first[v], counts[v] = int64(a), int64(b)
		}
	})
	prefixSum(counts, p)
	out.samples = make([]int32, out.offsets[n])
	par.Run(p, func(rank int) {
		vl, vh := par.Interval(n, p, rank)
		for v := vl; v < vh; v++ {
			src := x.samples[x.offsets[v]+first[v]:]
			dst := out.samples[out.offsets[v]:out.offsets[v+1]]
			for i := range dst {
				dst[i] = src[i] - int32(lo)
			}
		}
	})
	return out
}

// PatchIndex derives BuildIndex(next, p) from the index of a previous
// collection when the two differ only at the sample ids listed in changed
// (sorted ascending; prev and next hold the same sample count). A full
// rebuild pays a fixed per-(worker x sample) navigation cost in both of
// its passes, which dominates whenever samples are small — the common case
// for delta maintenance, where a batch repairs a handful of samples out of
// theta. The patch instead copies every untouched vertex's incidence list
// verbatim and merges removal/addition ids only into the lists of vertices
// the changed samples actually mention: O(n + TotalSize) memory traffic
// plus O(p x |changed|) navigation, independent of theta.
//
// The result is byte-identical to a fresh BuildIndex over next at any
// worker count (both keep each list ascending by sample id). An empty
// changed list returns idx itself — indexes are immutable, so sharing is
// safe.
func PatchIndex(idx *Index, prev, next *Collection, changed []int32, p int) *Index {
	if len(changed) == 0 {
		return idx
	}
	n := prev.NumVertices()
	p = clampWorkers(p, n)
	out := &Index{offsets: make([]int64, n+1), count: idx.count}

	// Pass 1: new counts = old incidence adjusted by the changed samples'
	// membership deltas. Workers own vertex intervals exactly as in
	// buildIndex, but navigate only the changed samples.
	counts := out.offsets[1:]
	par.Run(p, func(rank int) {
		vl, vh := par.Interval(n, p, rank)
		for v := vl; v < vh; v++ {
			counts[v] = idx.offsets[v+1] - idx.offsets[v]
		}
		for _, id := range changed {
			for _, u := range prev.RangeOf(int(id), graph.Vertex(vl), graph.Vertex(vh)) {
				counts[u]--
			}
			for _, u := range next.RangeOf(int(id), graph.Vertex(vl), graph.Vertex(vh)) {
				counts[u]++
			}
		}
	})

	prefixSum(counts, p)

	// Pass 2: fill. Each worker inverts the changed samples over its
	// interval into per-vertex removal (old membership) and addition (new
	// membership) lists — ascending by id because changed is — then per
	// vertex either copies the old list straight through or merges:
	// (old \ removals) interleaved with additions. An id on both sides is
	// a regenerated sample that still contains v; it leaves the merge at
	// its original sorted position.
	out.samples = make([]int32, out.offsets[n])
	par.Run(p, func(rank int) {
		vl, vh := par.Interval(n, p, rank)
		rem := make([][]int32, vh-vl)
		add := make([][]int32, vh-vl)
		for _, id := range changed {
			for _, u := range prev.RangeOf(int(id), graph.Vertex(vl), graph.Vertex(vh)) {
				rem[int(u)-vl] = append(rem[int(u)-vl], id)
			}
			for _, u := range next.RangeOf(int(id), graph.Vertex(vl), graph.Vertex(vh)) {
				add[int(u)-vl] = append(add[int(u)-vl], id)
			}
		}
		var kept []int32
		for v := vl; v < vh; v++ {
			dst := out.samples[out.offsets[v]:out.offsets[v+1]]
			src := idx.samples[idx.offsets[v]:idx.offsets[v+1]]
			rv, av := rem[v-vl], add[v-vl]
			if len(rv) == 0 && len(av) == 0 {
				copy(dst, src)
				continue
			}
			kept = kept[:0]
			ri := 0
			for _, id := range src {
				if ri < len(rv) && rv[ri] == id {
					ri++
					continue
				}
				kept = append(kept, id)
			}
			ki, ai, o := 0, 0, 0
			for ki < len(kept) && ai < len(av) {
				if kept[ki] < av[ai] {
					dst[o] = kept[ki]
					ki++
				} else {
					dst[o] = av[ai]
					ai++
				}
				o++
			}
			o += copy(dst[o:], kept[ki:])
			copy(dst[o:], av[ai:])
		}
	})
	return out
}

// NumVertices returns the vertex-universe size the index was built over.
func (x *Index) NumVertices() int { return len(x.offsets) - 1 }

// Count returns the number of samples indexed: the index covers ids
// [0, Count()).
func (x *Index) Count() int { return x.count }

// Entries returns the number of (vertex, sample) incidences stored — the
// TotalSize of the indexed samples.
func (x *Index) Entries() int64 { return int64(len(x.samples)) }

// SamplesOf returns the ascending ids of the samples containing v
// (aliasing internal storage; do not modify).
func (x *Index) SamplesOf(v graph.Vertex) []int32 {
	return x.samples[x.offsets[v]:x.offsets[v+1]]
}

// Degree returns the incidence count of v without materializing the slice.
func (x *Index) Degree(v graph.Vertex) int64 {
	return x.offsets[v+1] - x.offsets[v]
}

// Bytes returns the index footprint — the transient cost of indexed seed
// selection, reported as rrr/index-bytes alongside the store's Bytes.
func (x *Index) Bytes() int64 {
	return int64(len(x.samples))*4 + int64(len(x.offsets))*8
}

// Bitset is a bit-packed boolean vector over sample ids, replacing the
// byte-per-sample covered slices of seed selection (8x smaller, so the
// covered set of a multi-million-sample run stays cache-resident).
type Bitset []uint64

// NewBitset returns an all-false bitset of n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Get reports bit i.
func (b Bitset) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }
