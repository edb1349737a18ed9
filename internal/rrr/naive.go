package rrr

import "influmax/internal/graph"

// NaiveStore reproduces the storage strategy of the Tang et al. reference
// implementation, the sequential baseline "IMM" of Table 2: every sample is
// a separately allocated vertex list, and the vertex->sample incidence is
// materialized in full, so every sample/vertex association is stored twice
// and the layout is pointer-heavy rather than arena-based. The Table 2
// comparison (IMM vs IMMopt) is exactly NaiveStore vs Collection.
type NaiveStore struct {
	n         int
	samples   [][]graph.Vertex
	incidence [][]int32
}

// NewNaiveStore returns an empty store over n vertices.
func NewNaiveStore(n int) *NaiveStore {
	return &NaiveStore{n: n, incidence: make([][]int32, n)}
}

// NumVertices returns the vertex-universe size.
func (s *NaiveStore) NumVertices() int { return s.n }

// Count returns the number of stored samples.
func (s *NaiveStore) Count() int { return len(s.samples) }

// Append copies one sorted sample into the store and updates the inverted
// incidence.
func (s *NaiveStore) Append(set []graph.Vertex) {
	idx := int32(len(s.samples))
	own := append([]graph.Vertex(nil), set...)
	s.samples = append(s.samples, own)
	for _, v := range own {
		s.incidence[v] = append(s.incidence[v], idx)
	}
}

// Sample returns the i-th sample.
func (s *NaiveStore) Sample(i int) []graph.Vertex { return s.samples[i] }

// SamplesOf returns the indices of samples containing v.
func (s *NaiveStore) SamplesOf(v graph.Vertex) []int32 { return s.incidence[v] }

// TotalSize returns the summed cardinality of all samples.
func (s *NaiveStore) TotalSize() int64 {
	var t int64
	for _, sm := range s.samples {
		t += int64(len(sm))
	}
	return t
}

// Bytes returns the memory footprint: both directions of the association
// plus per-sample slice headers — the cost IMMopt eliminates.
func (s *NaiveStore) Bytes() int64 {
	b := int64(0)
	for _, sm := range s.samples {
		b += int64(cap(sm))*4 + 24
	}
	for _, inc := range s.incidence {
		b += int64(cap(inc))*4 + 24
	}
	return b
}
