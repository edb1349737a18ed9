package rrr

import (
	"influmax/internal/graph"
	"influmax/internal/par"
)

// Index is the CSR vertex -> sample-ids inverted incidence of a Collection:
// SamplesOf(v) lists, ascending, the ids of every sample containing v. It is
// the lookup structure that turns Algorithm 4's purge step — "remove every
// sample containing the chosen seed" — from a scan over all |R| samples into
// a direct walk of the seed's incidence list, the strategy of HBMax and of
// the sequential NaiveStore baseline, but built on demand from the compact
// one-directional store so sampling keeps its halved memory footprint.
//
// Unlike NaiveStore, which maintains per-vertex slices incrementally during
// Append (one allocation-prone slice per vertex, resident for the whole
// run), Index is two flat arrays built in one parallel pass after sampling
// finishes and dropped when selection ends.
type Index struct {
	offsets []int64 // len = NumVertices()+1
	samples []int32 // concatenated ascending sample ids; len = TotalSize()
}

// BuildIndex constructs the inverted incidence of col with p workers
// (p <= 0 uses the default). The build is the two-pass count / prefix-sum /
// fill scheme over interval-partitioned workers: every worker owns a
// contiguous vertex interval and touches only its own slots in every pass,
// so no atomics are needed — the same ownership discipline Algorithm 4 uses
// for its counter updates.
func BuildIndex(col *Collection, p int) *Index {
	return buildIndex(col.NumVertices(), col.Count(), p,
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
// the build costs one extra decode pass per worker — paid once at sketch
// build, or when a snapshot carries samples but no index.
func BuildIndexCoded(col *CodedCollection, p int) *Index {
	return buildIndex(col.NumVertices(), col.Count(), p, col.visitRange)
}

// buildIndex is the store-agnostic core of the two-pass build: rangeOf
// must invoke visit for every member of sample j falling in [vl, vh),
// ascending — the only store access the scheme needs.
func buildIndex(n, count, p int, rangeOf func(j int, vl, vh graph.Vertex, visit func(graph.Vertex))) *Index {
	idx := &Index{offsets: make([]int64, n+1)}
	if n == 0 || count == 0 {
		return idx
	}
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	if p > n {
		p = n
	}

	// Pass 1: per-vertex incidence counts. Each worker navigates to its
	// interval within every sorted sample and increments only the counters
	// it owns (offsets[v+1] doubles as the count slot).
	counts := idx.offsets[1:]
	par.Run(p, func(rank int) {
		vl, vh := par.Interval(n, p, rank)
		for j := 0; j < count; j++ {
			rangeOf(j, graph.Vertex(vl), graph.Vertex(vh), func(u graph.Vertex) {
				counts[u]++
			})
		}
	})

	// Prefix sum, two-level: each worker scans its interval into a local
	// running sum, the p interval totals are exclusive-scanned serially,
	// and each worker rebases its interval — offsets stay worker-owned.
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

	// Pass 2: fill. idx.offsets[v] is the start of v's list and next[v]
	// tracks the cursor; iterating samples in ascending j keeps each
	// vertex's list sorted without a final sort pass. Workers again write
	// only slots owned via their vertex interval.
	idx.samples = make([]int32, idx.offsets[n])
	next := make([]int64, n)
	par.Run(p, func(rank int) {
		vl, vh := par.Interval(n, p, rank)
		for v := vl; v < vh; v++ {
			next[v] = idx.offsets[v]
		}
		for j := 0; j < count; j++ {
			rangeOf(j, graph.Vertex(vl), graph.Vertex(vh), func(u graph.Vertex) {
				idx.samples[next[u]] = int32(j)
				next[u]++
			})
		}
	})
	return idx
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
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	if p > n {
		p = n
	}
	out := &Index{offsets: make([]int64, n+1)}

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

	// Prefix sum, two-level (same scheme as buildIndex).
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
