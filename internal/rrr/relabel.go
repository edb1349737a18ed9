package rrr

import (
	"fmt"

	"influmax/internal/graph"
	"influmax/internal/par"
)

// Relabeling is a bijection between original vertex ids and code ids,
// ordered by incidence frequency: the vertex appearing in the most samples
// gets code 0, the next code 1, and so on (ties broken by ascending
// original id, so the table is a pure function of the frequency vector).
// Re-expressing each sorted sample in code space concentrates the hot
// vertices — which dominate sample membership on clustered graphs — into
// the small ids, so the gaps of a delta coding shrink and most varints fit
// one byte. This is the HBMax observation: RRR memory, not CPU, binds at
// scale, and frequency ordering is what unlocks byte-level coding.
//
// The zero value is not useful; construct with NewRelabeling or
// relabelingFromTable. A nil *Relabeling everywhere means the identity
// labeling (code space == original id space).
type Relabeling struct {
	code []uint32 // original id -> code
	orig []uint32 // code -> original id
}

// NewRelabeling builds the frequency-ordered relabeling for a universe of
// len(freq) vertices, where freq[v] counts the samples containing v.
// Ordering is (frequency descending, original id ascending).
func NewRelabeling(freq []int32) *Relabeling {
	n := len(freq)
	r := &Relabeling{code: make([]uint32, n), orig: make([]uint32, n)}
	for v := range r.orig {
		r.orig[v] = uint32(v)
	}
	// Counting sort by frequency bucket keeps construction O(n + maxFreq)
	// and, because vertices are scanned in ascending id within each bucket,
	// realizes the (freq desc, id asc) tie-break without a comparison sort.
	maxFreq := int32(0)
	for _, f := range freq {
		if f > maxFreq {
			maxFreq = f
		}
	}
	buckets := make([]int32, int(maxFreq)+2)
	for _, f := range freq {
		buckets[maxFreq-f]++
	}
	for b := 1; b < len(buckets); b++ {
		buckets[b] += buckets[b-1]
	}
	for b := len(buckets) - 1; b > 0; b-- {
		buckets[b] = buckets[b-1]
	}
	buckets[0] = 0
	for v := 0; v < n; v++ {
		b := maxFreq - freq[v]
		r.orig[buckets[b]] = uint32(v)
		buckets[b]++
	}
	for c, v := range r.orig {
		r.code[v] = uint32(c)
	}
	return r
}

// relabelingFromTable reconstructs a relabeling from its code -> original
// table (the snapshot form), validating that the table is a permutation of
// [0, len(table)).
func relabelingFromTable(table []uint32) (*Relabeling, error) {
	n := len(table)
	r := &Relabeling{code: make([]uint32, n), orig: table}
	seen := make([]bool, n)
	for c, v := range table {
		if int(v) >= n {
			return nil, fmt.Errorf("rrr: relabel table entry %d = %d out of range [0, %d)", c, v, n)
		}
		if seen[v] {
			return nil, fmt.Errorf("rrr: relabel table maps vertex %d twice", v)
		}
		seen[v] = true
		r.code[v] = uint32(c)
	}
	return r, nil
}

// Len returns the size of the labeled universe.
func (r *Relabeling) Len() int { return len(r.orig) }

// codeOf maps an original vertex id to its code.
func (r *Relabeling) codeOf(v graph.Vertex) uint32 { return r.code[v] }

// origOf maps a code back to the original vertex id.
func (r *Relabeling) origOf(c uint32) graph.Vertex { return graph.Vertex(r.orig[c]) }

// Table returns the code -> original column, the form the snapshot codec
// persists (aliasing internal storage; do not modify).
func (r *Relabeling) Table() []uint32 { return r.orig }

// Bytes returns the resident footprint of both direction tables; a coded
// store's Bytes accounting charges itself for the table it depends on.
func (r *Relabeling) Bytes() int64 {
	if r == nil {
		return 0
	}
	return int64(len(r.code)+len(r.orig)) * 4
}

// IncidenceOf counts, for every vertex, the number of samples of col
// containing it, with p workers over interval-owned counters (the same
// no-atomics discipline as BuildIndex pass 1). This frequency vector is
// the input to NewRelabeling.
func IncidenceOf(col *Collection, p int) []int32 {
	n := col.NumVertices()
	freq := make([]int32, n)
	if p <= 0 {
		p = par.DefaultWorkers()
	}
	if p > n {
		p = n
	}
	if n == 0 {
		return freq
	}
	par.Run(p, func(rank int) {
		vl, vh := par.Interval(n, p, rank)
		col.CountRange(freq, nil, graph.Vertex(vl), graph.Vertex(vh))
	})
	return freq
}
