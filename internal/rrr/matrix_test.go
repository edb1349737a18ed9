package rrr

import (
	"slices"
	"testing"

	"influmax/internal/graph"
)

// TestMatrixRoundTrip: a collection converted to the bit matrix comes back
// sample for sample from Collection, and the matrix's Index is
// BuildIndex's, at any worker count and for counts that end mid-block.
func TestMatrixRoundTrip(t *testing.T) {
	for _, count := range []int{0, 1, 63, 64, 65, 130} {
		col, _ := randomCollection(uint64(count)+9, 150, count, 0.3)
		want := BuildIndex(col, 1)
		for _, p := range []int{1, 3} {
			m := MatrixOf(col, p)
			if m.Count() != count || m.TotalSize() != col.TotalSize() || m.Blocks() != (count+63)/64 {
				t.Fatalf("count %d p %d: matrix holds %d samples, %d entries, %d blocks", count, p, m.Count(), m.TotalSize(), m.Blocks())
			}
			if m.Bytes() != MatrixBytes(150, count)+int64(count)*4 {
				t.Fatalf("count %d: Bytes %d", count, m.Bytes())
			}
			back := m.Collection(p)
			if back.Count() != count || back.CheckInvariants() != -1 {
				t.Fatalf("count %d p %d: materialised %d samples, invariants %d", count, p, back.Count(), back.CheckInvariants())
			}
			for j := range count {
				if !slices.Equal(back.Sample(j), col.Sample(j)) {
					t.Fatalf("count %d p %d: sample %d = %v, want %v", count, p, j, back.Sample(j), col.Sample(j))
				}
			}
			idx := m.Index(p)
			if idx.Count() != want.Count() || idx.Entries() != want.Entries() {
				t.Fatalf("count %d p %d: index of %d samples, %d entries", count, p, idx.Count(), idx.Entries())
			}
			for v := range graph.Vertex(150) {
				if !slices.Equal(idx.SamplesOf(v), want.SamplesOf(v)) {
					t.Fatalf("count %d p %d: SamplesOf(%d) = %v, want %v", count, p, v, idx.SamplesOf(v), want.SamplesOf(v))
				}
			}
		}
	}
}

// TestMatrixGrowKeepsLanes: growing a matrix that ends mid-block keeps the
// block's earlier lanes and hands out the new samples' size column.
func TestMatrixGrowKeepsLanes(t *testing.T) {
	m := newMatrix(4)
	sizes := m.Grow(3)
	m.Row(0)[2] |= 1 << 1
	sizes[1] = 1
	sizes = m.Grow(70)
	if len(sizes) != 70 || m.Count() != 73 || m.Blocks() != 2 {
		t.Fatalf("grew to %d samples in %d blocks, column %d", m.Count(), m.Blocks(), len(sizes))
	}
	if m.Row(0)[2] != 1<<1 || m.TotalSize() != 1 {
		t.Fatal("Grow lost an earlier lane")
	}
}
