// Package rrr provides the storage layer for collections of random reverse
// reachable (RRR) sets — the set R of Algorithm 1.
//
// Two representations are implemented, mirroring the paper's Table 2
// comparison:
//
//   - Collection is the paper's compact one-directional layout (Section
//     3.1): each sample is stored once, as a vertex list sorted by id,
//     concatenated into a single flat arena. Sorted order gives the two
//     properties Algorithm 4 exploits: a thread's vertex interval
//     [vl, vh) occupies contiguous memory within every sample (counting
//     proceeds in cache order) and its bounds are found by binary search.
//
//   - NaiveStore (naive.go) keeps every sample as its own allocation and
//     additionally materializes the inverted vertex-to-sample incidence,
//     as Tang et al.'s reference implementation does. It makes seed
//     selection cheaper but roughly doubles the memory footprint — the
//     trade-off quantified in Table 2.
//
// Beyond the paper, CodedCollection (coded.go) byte-codes sparse samples,
// and Matrix (matrix.go) keeps dense ones as the fused kernel's lane
// words, one bit per (vertex, sample).
package rrr

import (
	"slices"
	"sort"

	"influmax/internal/graph"
)

// Collection stores RRR sets in the compact one-directional layout.
type Collection struct {
	n       int
	offsets []int64        // len = Count()+1
	verts   []graph.Vertex // concatenated sorted vertex lists
}

// NewCollection returns an empty collection over a graph with n vertices.
func NewCollection(n int) *Collection {
	return &Collection{n: n, offsets: []int64{0}}
}

// NumVertices returns the vertex-universe size.
func (c *Collection) NumVertices() int { return c.n }

// Count returns the number of stored samples.
func (c *Collection) Count() int { return len(c.offsets) - 1 }

// TotalSize returns the summed cardinality of all samples.
func (c *Collection) TotalSize() int64 { return int64(len(c.verts)) }

// Append adds one sample. The vertex list must be sorted ascending and
// duplicate-free (as produced by diffuse.Sampler.GenerateRR); this is the
// caller's contract and is checked in debug builds via CheckInvariants.
func (c *Collection) Append(set []graph.Vertex) {
	c.verts = append(c.verts, set...)
	c.offsets = append(c.offsets, int64(len(c.verts)))
}

// AppendArena bulk-appends samples stored in another flat arena (used to
// merge per-worker sampling output in deterministic order).
func (c *Collection) AppendArena(verts []graph.Vertex, offsets []int64) {
	base := int64(len(c.verts))
	c.verts = append(c.verts, verts...)
	for i := 1; i < len(offsets); i++ {
		c.offsets = append(c.offsets, base+offsets[i])
	}
}

// Reserve grows the backing arrays so that at least samples more samples
// totalling entries more vertex entries can be appended without
// reallocation (batch merges size their append target exactly).
func (c *Collection) Reserve(samples int, entries int64) {
	c.offsets = slices.Grow(c.offsets, samples)
	c.verts = slices.Grow(c.verts, int(entries))
}

// Sample returns the i-th sample's sorted vertex list (aliasing internal
// storage; do not modify).
func (c *Collection) Sample(i int) []graph.Vertex {
	return c.verts[c.offsets[i]:c.offsets[i+1]]
}

// Contains reports whether vertex v is a member of sample i (binary
// search).
func (c *Collection) Contains(i int, v graph.Vertex) bool {
	s := c.Sample(i)
	j := sort.Search(len(s), func(k int) bool { return s[k] >= v })
	return j < len(s) && s[j] == v
}

// RangeOf returns the sub-slice of sample i whose vertices fall in
// [vl, vh), located by binary search — the navigation step that lets each
// rank avoid traversing samples outside its vertex interval.
func (c *Collection) RangeOf(i int, vl, vh graph.Vertex) []graph.Vertex {
	s := c.Sample(i)
	lo := sort.Search(len(s), func(k int) bool { return s[k] >= vl })
	hi := sort.Search(len(s), func(k int) bool { return s[k] >= vh })
	return s[lo:hi]
}

// Truncate drops all samples beyond the first count (used when the
// estimation phase produced more samples than the final theta requires).
func (c *Collection) Truncate(count int) {
	if count >= c.Count() {
		return
	}
	c.offsets = c.offsets[:count+1]
	c.verts = c.verts[:c.offsets[count]]
}

// Range returns samples [lo, hi) as a collection that shares this one's
// vertex arena instead of copying it (capacity-capped, so an Append to
// either never writes into the other).
func (c *Collection) Range(lo, hi int) *Collection {
	base, end := c.offsets[lo], c.offsets[hi]
	offs := make([]int64, hi-lo+1)
	for i := range offs {
		offs[i] = c.offsets[lo+i] - base
	}
	return &Collection{n: c.n, offsets: offs, verts: c.verts[base:end:end]}
}

// Bytes returns the memory footprint of the stored samples, matching the
// accounting used for Table 2's memory columns.
func (c *Collection) Bytes() int64 { return FlatBytes(c.Count(), c.TotalSize()) }

// FlatBytes is the flat arena's footprint for count samples holding
// entries members: 4 bytes per entry plus 8 per sample offset.
func FlatBytes(count int, entries int64) int64 { return entries*4 + int64(count+1)*8 }

// CheckInvariants verifies that every sample is sorted and duplicate-free
// and that offsets are monotone. It is used by tests and returns the index
// of the first offending sample, or -1.
func (c *Collection) CheckInvariants() int {
	for i := 0; i < c.Count(); i++ {
		if c.offsets[i] > c.offsets[i+1] {
			return i
		}
		s := c.Sample(i)
		for j := 1; j < len(s); j++ {
			if s[j] <= s[j-1] {
				return i
			}
		}
	}
	return -1
}

// CountRange accumulates, into counter, the number of samples each vertex
// in [vl, vh) belongs to, skipping samples marked in covered (may be nil
// to count everything). This is the first phase of Algorithm 4 executed by
// the rank owning [vl, vh).
func (c *Collection) CountRange(counter []int32, covered Bitset, vl, vh graph.Vertex) {
	for i := 0; i < c.Count(); i++ {
		if covered != nil && covered.Get(i) {
			continue
		}
		for _, u := range c.RangeOf(i, vl, vh) {
			counter[u]++
		}
	}
}
