package rrr

import (
	"math/bits"

	"influmax/internal/graph"
	"influmax/internal/par"
)

// Matrix stores RRR sets as an n × Count() bit matrix, the layout of
// dense draws (DESIGN.md §13.6). Sample ids are grouped into blocks of
// 64; block b is a row of n words, and bit j&63 of word v in block j>>6
// says that sample j contains v. A row is exactly the visited word array
// the fused sampling kernel holds after a 64-sample batch, so a dense draw
// is kept as the kernel computes it, and the one layout serves as both
// store and index: a vertex's samples are its word in every block.
//
// The footprint is ⌈Count()/64⌉·n·8 bytes plus 4 per sample, whatever the
// samples' sizes, which beats the flat arena's 4 bytes per entry once a
// mean sample holds about n/32 vertices (MatrixBytes, FlatBytes).
//
// A writer owns whole blocks (Grow, Row); once shared, a Matrix is
// immutable and safe for any number of concurrent readers.
type Matrix struct {
	n     int
	rows  [][]uint64 // one n-word row per 64-sample block
	sizes []int32    // per-sample cardinalities; len = Count()
}

// MatrixBytes is the word footprint of count samples over n vertices in
// the bit matrix: ⌈count/64⌉·n·8 bytes.
func MatrixBytes(n, count int) int64 {
	return int64((count+63)/64) * int64(n) * 8
}

// newMatrix returns an empty matrix over n vertices.
func newMatrix(n int) *Matrix { return &Matrix{n: n} }

// NumVertices returns the vertex-universe size.
func (m *Matrix) NumVertices() int { return m.n }

// Count returns the number of stored samples.
func (m *Matrix) Count() int { return len(m.sizes) }

// Blocks returns the number of 64-sample blocks, ⌈Count()/64⌉.
func (m *Matrix) Blocks() int { return len(m.rows) }

// Row returns block b's n words (aliasing internal storage): bit l of
// word v says that sample 64·b+l contains v.
func (m *Matrix) Row(b int) []uint64 { return m.rows[b] }

// TotalSize returns the summed cardinality of all samples.
func (m *Matrix) TotalSize() int64 {
	var t int64
	for _, s := range m.sizes {
		t += int64(s)
	}
	return t
}

// Bytes returns the memory footprint: every block's words plus the size
// column.
func (m *Matrix) Bytes() int64 {
	return MatrixBytes(m.n, m.Count()) + int64(len(m.sizes))*4
}

// Grow appends count empty samples, ids [Count(), Count()+count), and
// returns their size column for the writer to fill. The writer sets the
// samples' bits in the rows of the blocks they fall in; a block the
// previous Count() ended inside keeps its earlier lanes, and the new
// lanes' bits are still clear.
func (m *Matrix) Grow(count int) []int32 {
	first := len(m.sizes)
	m.sizes = append(m.sizes, make([]int32, count)...)
	for len(m.rows) < (len(m.sizes)+63)/64 {
		m.rows = append(m.rows, make([]uint64, m.n))
	}
	return m.sizes[first:]
}

// MatrixOf converts col into a matrix with p workers, each owning whole
// blocks of 64 samples.
func MatrixOf(col *Collection, p int) *Matrix {
	m := newMatrix(col.NumVertices())
	sizes := m.Grow(col.Count())
	par.ForEach(m.Blocks(), p, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			row := m.rows[b]
			for j := b * 64; j < min((b+1)*64, col.Count()); j++ {
				bit := uint64(1) << (uint(j) & 63)
				s := col.Sample(j)
				for _, v := range s {
					row[v] |= bit
				}
				sizes[j] = int32(len(s))
			}
		}
	})
	return m
}

// Collection materialises the matrix as a flat arena with p workers, each
// owning whole blocks: walking a block's row in ascending v appends every
// member of its 64 samples in order, so each sample comes out sorted, as
// the fused kernel's drain emits it, straight into its final place (the
// size column gives every offset up front).
func (m *Matrix) Collection(p int) *Collection {
	count := m.Count()
	offsets := make([]int64, count+1)
	for j, s := range m.sizes {
		offsets[j+1] = offsets[j] + int64(s)
	}
	verts := make([]graph.Vertex, offsets[count])
	par.ForEach(m.Blocks(), p, func(_, lo, hi int) {
		var cur [64]int64
		for b := lo; b < hi; b++ {
			copy(cur[:], offsets[b*64:min((b+1)*64, count)])
			for v, w := range m.rows[b] {
				for ; w != 0; w &= w - 1 {
					l := bits.TrailingZeros64(w)
					verts[cur[l]] = graph.Vertex(v)
					cur[l]++
				}
			}
		}
	})
	return &Collection{n: m.n, offsets: offsets, verts: verts}
}

// Index materialises the inverted incidence of the matrix with p workers
// over vertex intervals: v's degree is the popcount of its words, and its
// ascending sample ids come off its word in each block in block order.
// It equals BuildIndex over Collection(p), byte for byte.
func (m *Matrix) Index(p int) *Index {
	n := m.n
	idx := &Index{offsets: make([]int64, n+1), count: m.Count()}
	if n == 0 || m.Count() == 0 {
		return idx
	}
	p = clampWorkers(p, n)
	counts := idx.offsets[1:]
	par.Run(p, func(rank int) {
		vl, vh := par.Interval(n, p, rank)
		for _, row := range m.rows {
			for v, w := range row[vl:vh] {
				counts[vl+v] += int64(bits.OnesCount64(w))
			}
		}
	})
	prefixSum(counts, p)
	idx.samples = make([]int32, idx.offsets[n])
	par.Run(p, func(rank int) {
		vl, vh := par.Interval(n, p, rank)
		for v := vl; v < vh; v++ {
			out := idx.samples[idx.offsets[v]:idx.offsets[v+1]]
			o := 0
			for b, row := range m.rows {
				for w := row[v]; w != 0; w &= w - 1 {
					out[o] = int32(b*64 + bits.TrailingZeros64(w))
					o++
				}
			}
		}
	})
	return idx
}
