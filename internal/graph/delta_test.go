package graph

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"influmax/internal/rng"
)

// deltaFixture is a small multigraph with a parallel edge (2->0 twice) and
// a self-loop so deletion order against base in-lists is exercised.
func deltaFixture() (*Graph, []Edge) {
	es := []Edge{
		{0, 1, 0.5},
		{1, 2, 0.25},
		{2, 0, 0.125},
		{2, 0, 0.0625}, // parallel to the previous edge
		{3, 3, 0.75},   // self-loop
		{0, 2, 0.3},
	}
	return FromEdges(4, es), es
}

// requireSameGraph fails unless a and b are structurally identical: same
// vertex count, same per-vertex adjacency in the same order with
// bit-identical weights in both CSR directions, and consistent outToIn
// cross-links.
func requireSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: %d/%d vertices, %d/%d edges",
			a.NumVertices(), b.NumVertices(), a.NumEdges(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		ad, aw := a.OutNeighbors(Vertex(v))
		bd, bw := b.OutNeighbors(Vertex(v))
		if len(ad) != len(bd) {
			t.Fatalf("vertex %d: out-degree %d != %d", v, len(ad), len(bd))
		}
		for i := range ad {
			if ad[i] != bd[i] || math.Float32bits(aw[i]) != math.Float32bits(bw[i]) {
				t.Fatalf("vertex %d out-slot %d: (%d,%v) != (%d,%v)",
					v, i, ad[i], aw[i], bd[i], bw[i])
			}
		}
		as, aiw := a.InNeighbors(Vertex(v))
		bs, biw := b.InNeighbors(Vertex(v))
		if len(as) != len(bs) {
			t.Fatalf("vertex %d: in-degree %d != %d", v, len(as), len(bs))
		}
		for i := range as {
			if as[i] != bs[i] || math.Float32bits(aiw[i]) != math.Float32bits(biw[i]) {
				t.Fatalf("vertex %d in-slot %d: (%d,%v) != (%d,%v)",
					v, i, as[i], aiw[i], bs[i], biw[i])
			}
		}
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("digests differ despite identical adjacency")
	}
}

// requireValidCrossLinks fails unless g's outToIn mapping is a bijection
// onto in-slots that agrees with both CSR views.
func requireValidCrossLinks(t *testing.T, g *Graph) {
	t.Helper()
	seen := make([]bool, len(g.inSrc))
	for u := 0; u < g.n; u++ {
		for k := g.outOff[u]; k < g.outOff[u+1]; k++ {
			ip := g.outToIn[k]
			if ip < 0 || ip >= int64(len(g.inSrc)) {
				t.Fatalf("out-slot %d: outToIn %d out of range", k, ip)
			}
			if seen[ip] {
				t.Fatalf("in-slot %d mapped twice", ip)
			}
			seen[ip] = true
			dst := g.outDst[k]
			if ip < g.inOff[dst] || ip >= g.inOff[dst+1] {
				t.Fatalf("out-slot %d: in-slot %d outside dst %d's range", k, ip, dst)
			}
			if g.inSrc[ip] != Vertex(u) {
				t.Fatalf("out-slot %d: in-slot %d has src %d, want %d", k, ip, g.inSrc[ip], u)
			}
			if math.Float32bits(g.inW[ip]) != math.Float32bits(g.outW[k]) {
				t.Fatalf("out-slot %d: weight views disagree (%v vs %v)", k, g.inW[ip], g.outW[k])
			}
		}
	}
}

func TestOverlayInsertDelete(t *testing.T) {
	g, es := deltaFixture()
	ov := NewOverlay(g)
	if err := ov.Apply(Delta{
		{Kind: DeltaInsert, Src: 3, Dst: 1, W: 0.9},
		{Kind: DeltaDelete, Src: 1, Dst: 2},
		{Kind: DeltaDelete, Src: 2, Dst: 0}, // removes the first parallel occurrence
	}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !ov.Mutated() {
		t.Fatalf("Mutated() = false after a mutating batch")
	}
	got := ov.Compact()
	requireValidCrossLinks(t, got)

	// Mirror the batch on the edge list: delete first occurrences, append
	// inserts — that is exactly the canonical compaction order.
	want := FromEdges(4, []Edge{
		{0, 1, 0.5},
		{2, 0, 0.0625},
		{3, 3, 0.75},
		{0, 2, 0.3},
		{3, 1, 0.9},
	})
	requireSameGraph(t, got, want)

	// The base graph is untouched.
	requireSameGraph(t, g, FromEdges(4, es))
}

func TestOverlayInsertThenDeleteIsNoop(t *testing.T) {
	g, es := deltaFixture()
	ov := NewOverlay(g)
	if err := ov.Apply(Delta{
		{Kind: DeltaInsert, Src: 3, Dst: 0, W: 0.4},
		{Kind: DeltaDelete, Src: 3, Dst: 0},
	}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if ov.Mutated() {
		t.Fatalf("Mutated() = true for a net no-op batch")
	}
	requireSameGraph(t, ov.Compact(), FromEdges(4, es))
}

func TestOverlayDeleteThenReinsertMovesToTail(t *testing.T) {
	g, _ := deltaFixture()
	ov := NewOverlay(g)
	if err := ov.Apply(Delta{
		{Kind: DeltaDelete, Src: 0, Dst: 1},
		{Kind: DeltaInsert, Src: 0, Dst: 1, W: 0.99},
	}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	got := ov.Compact()
	requireValidCrossLinks(t, got)
	want := FromEdges(4, []Edge{
		{1, 2, 0.25},
		{2, 0, 0.125},
		{2, 0, 0.0625},
		{3, 3, 0.75},
		{0, 2, 0.3},
		{0, 1, 0.99},
	})
	requireSameGraph(t, got, want)
}

func TestOverlayValidation(t *testing.T) {
	cases := []struct {
		name  string
		d     Delta
		index int
	}{
		{"src out of range", Delta{{Kind: DeltaInsert, Src: 9, Dst: 0, W: 0.1}}, 0},
		{"dst out of range", Delta{{Kind: DeltaDelete, Src: 0, Dst: 9}}, 0},
		{"weight above one", Delta{{Kind: DeltaInsert, Src: 3, Dst: 0, W: 1.5}}, 0},
		{"weight NaN", Delta{{Kind: DeltaInsert, Src: 3, Dst: 0, W: float32(math.NaN())}}, 0},
		{"duplicate of base edge", Delta{{Kind: DeltaInsert, Src: 0, Dst: 1, W: 0.2}}, 0},
		{"duplicate of batch insert", Delta{
			{Kind: DeltaInsert, Src: 3, Dst: 0, W: 0.2},
			{Kind: DeltaInsert, Src: 3, Dst: 0, W: 0.3},
		}, 1},
		{"delete missing edge", Delta{{Kind: DeltaDelete, Src: 1, Dst: 0}}, 0},
		{"delete twice", Delta{
			{Kind: DeltaDelete, Src: 0, Dst: 1},
			{Kind: DeltaDelete, Src: 0, Dst: 1},
		}, 1},
		{"unknown kind", Delta{{Kind: DeltaOpKind(7), Src: 0, Dst: 1}}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := deltaFixture()
			err := NewOverlay(g).Apply(tc.d)
			var de *DeltaError
			if !errors.As(err, &de) {
				t.Fatalf("Apply = %v, want *DeltaError", err)
			}
			if de.Index != tc.index {
				t.Fatalf("DeltaError.Index = %d, want %d (%v)", de.Index, tc.index, de)
			}
		})
	}
}

func TestOverlaySingleUse(t *testing.T) {
	g, _ := deltaFixture()
	ov := NewOverlay(g)
	if err := ov.Apply(nil); err != nil {
		t.Fatalf("first Apply: %v", err)
	}
	if err := ov.Apply(nil); err == nil {
		t.Fatalf("second Apply succeeded; overlays are single-use")
	}
}

// TestAppendedInOpsAlignsWithInListTail pins where Compact puts a batch's
// inserted edges: the live inserts into v (not deleted later in the same
// batch), in op order, occupy the tail of v's in-adjacency list.
func TestAppendedInOpsAlignsWithInListTail(t *testing.T) {
	g, _ := deltaFixture()
	ov := NewOverlay(g)
	d := Delta{
		{Kind: DeltaInsert, Src: 3, Dst: 0, W: 0.11},
		{Kind: DeltaInsert, Src: 1, Dst: 0, W: 0.22},
		{Kind: DeltaInsert, Src: 0, Dst: 3, W: 0.33},
		{Kind: DeltaDelete, Src: 1, Dst: 0}, // kills op 1
	}
	if err := ov.Apply(d); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	ng := ov.Compact()
	live := map[Vertex][]DeltaOp{0: {d[0]}, 3: {d[2]}}
	for v := Vertex(0); v < 4; v++ {
		want := live[v]
		srcs, ws := ng.InNeighbors(v)
		base := g.InDegree(v) // the batch deletes no base edge
		if len(srcs) != base+len(want) {
			t.Fatalf("vertex %d: in-degree %d, want %d base + %d live inserts", v, len(srcs), base, len(want))
		}
		for i, op := range want {
			if srcs[base+i] != op.Src || ws[base+i] != op.W {
				t.Fatalf("vertex %d tail slot %d: (%d,%v) != insert (%d,%v)",
					v, base+i, srcs[base+i], ws[base+i], op.Src, op.W)
			}
		}
	}
}

// mutateMirror applies op to the canonical edge-list mirror: deletions
// remove the first matching occurrence, insertions append. This is the
// reference semantics the overlay must reproduce.
func mutateMirror(list []Edge, op DeltaOp) []Edge {
	if op.Kind == DeltaInsert {
		return append(list, Edge{op.Src, op.Dst, op.W})
	}
	for i, e := range list {
		if e.Src == op.Src && e.Dst == op.Dst {
			return append(list[:i:i], list[i+1:]...)
		}
	}
	return list
}

// TestOverlayCompactionQuick is the property pin: for randomized base
// graphs and randomized valid delta scripts applied over several
// sequential overlay+compact rounds, the result is identical — degrees,
// neighbor order, weights, cross-links — to building the CSR from the
// mutated edge list directly, before and after re-deriving
// weighted-cascade weights.
func TestOverlayCompactionQuick(t *testing.T) {
	property := func(seed uint64) bool {
		r := rng.New(rng.NewLCG(rng.Mix64(seed)))
		n := 2 + r.Intn(30)
		m := r.Intn(4 * n)
		list := make([]Edge, 0, m)
		for i := 0; i < m; i++ {
			e := Edge{Vertex(r.Intn(n)), Vertex(r.Intn(n)), r.Float32()}
			if r.Intn(8) > 0 {
				// Mostly unique edges, occasionally parallel duplicates.
				dup := false
				for _, x := range list {
					if x.Src == e.Src && x.Dst == e.Dst {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
			}
			list = append(list, e)
		}
		g := FromEdges(n, list)

		batches := 1 + r.Intn(4)
		for b := 0; b < batches; b++ {
			var d Delta
			ops := r.Intn(10)
			for o := 0; o < ops; o++ {
				if len(list) > 0 && r.Intn(2) == 0 {
					e := list[r.Intn(len(list))]
					d = append(d, DeltaOp{Kind: DeltaDelete, Src: e.Src, Dst: e.Dst})
				} else {
					u, v := Vertex(r.Intn(n)), Vertex(r.Intn(n))
					exists := false
					for _, x := range list {
						if x.Src == u && x.Dst == v {
							exists = true
							break
						}
					}
					if exists {
						continue
					}
					d = append(d, DeltaOp{Kind: DeltaInsert, Src: u, Dst: v, W: r.Float32()})
				}
				list = mutateMirror(list, d[len(d)-1])
			}
			ov := NewOverlay(g)
			if err := ov.Apply(d); err != nil {
				t.Logf("seed %d: unexpected Apply error: %v", seed, err)
				return false
			}
			g = ov.Compact()
			requireValidCrossLinks(t, g)
		}

		want := FromEdges(n, list)
		if g.Digest() != want.Digest() {
			t.Logf("seed %d: digest mismatch vs direct CSR build", seed)
			return false
		}
		// Weighted-cascade weights derived on the compacted graph must
		// equal those derived on the direct build (same in-degrees, same
		// slot order).
		g.AssignWeightedCascade()
		want.AssignWeightedCascade()
		if g.Digest() != want.Digest() {
			t.Logf("seed %d: digest mismatch after AssignWeightedCascade", seed)
			return false
		}
		requireSameGraph(t, g, want)
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
