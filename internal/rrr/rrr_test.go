package rrr

import (
	"slices"
	"testing"
	"testing/quick"

	"influmax/internal/graph"
	"influmax/internal/rng"
)

func TestCollectionAppendAndSample(t *testing.T) {
	c := NewCollection(10)
	c.Append([]graph.Vertex{1, 3, 5})
	c.Append([]graph.Vertex{0})
	c.Append(nil)
	c.Append([]graph.Vertex{2, 9})
	if c.Count() != 4 {
		t.Fatalf("Count = %d, want 4", c.Count())
	}
	if c.TotalSize() != 6 {
		t.Fatalf("TotalSize = %d, want 6", c.TotalSize())
	}
	if !slices.Equal(c.Sample(0), []graph.Vertex{1, 3, 5}) {
		t.Fatalf("Sample(0) = %v", c.Sample(0))
	}
	if len(c.Sample(2)) != 0 {
		t.Fatalf("Sample(2) = %v, want empty", c.Sample(2))
	}
	if got := c.CheckInvariants(); got != -1 {
		t.Fatalf("CheckInvariants = %d", got)
	}
}

func TestCollectionContains(t *testing.T) {
	c := NewCollection(100)
	c.Append([]graph.Vertex{2, 4, 8, 16, 32, 64})
	for _, v := range []graph.Vertex{2, 16, 64} {
		if !c.Contains(0, v) {
			t.Errorf("Contains(0, %d) = false", v)
		}
	}
	for _, v := range []graph.Vertex{0, 3, 63, 65, 99} {
		if c.Contains(0, v) {
			t.Errorf("Contains(0, %d) = true", v)
		}
	}
}

func TestRangeOf(t *testing.T) {
	c := NewCollection(100)
	c.Append([]graph.Vertex{5, 10, 15, 20, 25})
	cases := []struct {
		vl, vh graph.Vertex
		want   []graph.Vertex
	}{
		{0, 100, []graph.Vertex{5, 10, 15, 20, 25}},
		{10, 21, []graph.Vertex{10, 15, 20}},
		{11, 15, nil},
		{25, 26, []graph.Vertex{25}},
		{26, 100, nil},
		{0, 5, nil},
	}
	for _, tc := range cases {
		got := c.RangeOf(0, tc.vl, tc.vh)
		if !slices.Equal(got, tc.want) {
			t.Errorf("RangeOf(0, %d, %d) = %v, want %v", tc.vl, tc.vh, got, tc.want)
		}
	}
}

func TestRangePartitionCoversSample(t *testing.T) {
	// Splitting the vertex space into p intervals must partition every
	// sample without overlap or loss.
	check := func(seed uint64, pRaw uint8) bool {
		p := int(pRaw%7) + 1
		r := rng.New(rng.NewLCG(seed))
		n := 50
		var set []graph.Vertex
		for v := 0; v < n; v++ {
			if r.Float64() < 0.3 {
				set = append(set, graph.Vertex(v))
			}
		}
		c := NewCollection(n)
		c.Append(set)
		var rebuilt []graph.Vertex
		for rank := 0; rank < p; rank++ {
			vl := graph.Vertex(n * rank / p)
			vh := graph.Vertex(n * (rank + 1) / p)
			rebuilt = append(rebuilt, c.RangeOf(0, vl, vh)...)
		}
		return slices.Equal(rebuilt, set)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendArena(t *testing.T) {
	c := NewCollection(10)
	c.Append([]graph.Vertex{1, 2})
	// Worker arena with two samples: {3,4} and {5}.
	verts := []graph.Vertex{3, 4, 5}
	offsets := []int64{0, 2, 3}
	c.AppendArena(verts, offsets)
	if c.Count() != 3 {
		t.Fatalf("Count = %d, want 3", c.Count())
	}
	if !slices.Equal(c.Sample(1), []graph.Vertex{3, 4}) || !slices.Equal(c.Sample(2), []graph.Vertex{5}) {
		t.Fatalf("merged samples wrong: %v %v", c.Sample(1), c.Sample(2))
	}
	if c.CheckInvariants() != -1 {
		t.Fatal("invariants broken after arena append")
	}
}

func TestAppendArenaEmpty(t *testing.T) {
	c := NewCollection(5)
	c.AppendArena(nil, []int64{0})
	if c.Count() != 0 {
		t.Fatal("empty arena added samples")
	}
}

func TestTruncate(t *testing.T) {
	c := NewCollection(10)
	for i := 0; i < 5; i++ {
		c.Append([]graph.Vertex{graph.Vertex(i)})
	}
	c.Truncate(3)
	if c.Count() != 3 || c.TotalSize() != 3 {
		t.Fatalf("after truncate: count %d size %d", c.Count(), c.TotalSize())
	}
	c.Truncate(10) // no-op
	if c.Count() != 3 {
		t.Fatal("truncate beyond count changed collection")
	}
}

func TestCheckInvariantsDetectsUnsorted(t *testing.T) {
	c := NewCollection(10)
	c.Append([]graph.Vertex{3, 1}) // violates contract
	if c.CheckInvariants() != 0 {
		t.Fatal("unsorted sample not detected")
	}
	c2 := NewCollection(10)
	c2.Append([]graph.Vertex{1, 1}) // duplicate
	if c2.CheckInvariants() != 0 {
		t.Fatal("duplicate not detected")
	}
}

func TestCountRange(t *testing.T) {
	c := NewCollection(6)
	c.Append([]graph.Vertex{0, 2, 4})
	c.Append([]graph.Vertex{2, 3})
	c.Append([]graph.Vertex{4, 5})
	counter := make([]int32, 6)
	c.CountRange(counter, nil, 0, 6)
	want := []int32{1, 0, 2, 1, 2, 1}
	if !slices.Equal(counter, want) {
		t.Fatalf("counter = %v, want %v", counter, want)
	}
	// Restrict to [2,4): only vertices 2 and 3 counted.
	counter2 := make([]int32, 6)
	c.CountRange(counter2, nil, 2, 4)
	want2 := []int32{0, 0, 2, 1, 0, 0}
	if !slices.Equal(counter2, want2) {
		t.Fatalf("counter2 = %v, want %v", counter2, want2)
	}
}

func TestCountRangeSkipsCovered(t *testing.T) {
	c := NewCollection(4)
	c.Append([]graph.Vertex{0, 1})
	c.Append([]graph.Vertex{1, 2})
	counter := make([]int32, 4)
	covered := NewBitset(2)
	covered.Set(0)
	c.CountRange(counter, covered, 0, 4)
	want := []int32{0, 1, 1, 0}
	if !slices.Equal(counter, want) {
		t.Fatalf("counter = %v, want %v", counter, want)
	}
}

func TestCollectionBytesGrow(t *testing.T) {
	c := NewCollection(10)
	b0 := c.Bytes()
	c.Append([]graph.Vertex{1, 2, 3})
	if c.Bytes() <= b0 {
		t.Fatal("Bytes did not grow after append")
	}
}

// The TestHypergraph* tests pin NaiveStore, the bidirectional layout of
// Table 2's sequential baseline.

func TestHypergraphIncidence(t *testing.T) {
	h := NewNaiveStore(5)
	h.Append([]graph.Vertex{0, 2})
	h.Append([]graph.Vertex{2, 3})
	h.Append([]graph.Vertex{0})
	if !slices.Equal(h.SamplesOf(0), []int32{0, 2}) {
		t.Fatalf("SamplesOf(0) = %v", h.SamplesOf(0))
	}
	if !slices.Equal(h.SamplesOf(2), []int32{0, 1}) {
		t.Fatalf("SamplesOf(2) = %v", h.SamplesOf(2))
	}
	if len(h.SamplesOf(4)) != 0 {
		t.Fatal("SamplesOf(4) should be empty")
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestHypergraphBytesExceedCompact(t *testing.T) {
	// The whole point of Table 2: the bidirectional store costs more.
	c := NewCollection(100)
	h := NewNaiveStore(100)
	set := make([]graph.Vertex, 50)
	for i := range set {
		set[i] = graph.Vertex(i * 2)
	}
	for i := 0; i < 20; i++ {
		c.Append(set)
		h.Append(set)
	}
	if h.Bytes() <= c.Bytes() {
		t.Fatalf("naive store bytes (%d) not larger than compact (%d)", h.Bytes(), c.Bytes())
	}
}

func TestHypergraphIncidenceMatchesMembership(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(rng.NewLCG(seed))
		n := 30
		h := NewNaiveStore(n)
		for s := 0; s < 10; s++ {
			var set []graph.Vertex
			for v := 0; v < n; v++ {
				if r.Float64() < 0.25 {
					set = append(set, graph.Vertex(v))
				}
			}
			h.Append(set)
		}
		for v := 0; v < n; v++ {
			fromIncidence := len(h.SamplesOf(graph.Vertex(v)))
			direct := 0
			for s := 0; s < h.Count(); s++ {
				if slices.Contains(h.Sample(s), graph.Vertex(v)) {
					direct++
				}
			}
			if fromIncidence != direct {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReserveRetainsContentAndPreventsGrowth(t *testing.T) {
	c := NewCollection(10)
	c.Append([]graph.Vertex{1, 3})
	c.Reserve(100, 500)
	if c.Count() != 1 || len(c.Sample(0)) != 2 {
		t.Fatalf("Reserve disturbed content: count %d", c.Count())
	}
	// Appends within the reservation must not move the backing arrays.
	v0 := &c.verts[:cap(c.verts)][0]
	o0 := &c.offsets[:cap(c.offsets)][0]
	for i := 0; i < 100; i++ {
		c.Append([]graph.Vertex{graph.Vertex(i % 10), graph.Vertex(i%10 + 1)})
	}
	if &c.verts[0] != v0 || &c.offsets[0] != o0 {
		t.Fatal("append within reservation reallocated backing array")
	}
	if got := c.CheckInvariants(); got != -1 {
		t.Fatalf("invariants broken at sample %d", got)
	}
}

// TestCollectionRange: a range view holds exactly the parent's samples
// [lo, hi), and appends to either side never show through to the other.
func TestCollectionRange(t *testing.T) {
	col, sets := randomCollection(5, 30, 40, 0.2)
	for _, r := range [][2]int{{0, 40}, {0, 0}, {7, 19}, {19, 40}, {40, 40}} {
		part := col.Range(r[0], r[1])
		if part.Count() != r[1]-r[0] || part.NumVertices() != col.NumVertices() {
			t.Fatalf("Range%v: %d samples over %d vertices", r, part.Count(), part.NumVertices())
		}
		for j := 0; j < part.Count(); j++ {
			if !slices.Equal(part.Sample(j), sets[r[0]+j]) {
				t.Fatalf("Range%v: sample %d = %v, want %v", r, j, part.Sample(j), sets[r[0]+j])
			}
		}
	}
	head := col.Range(0, 10)
	head.Append([]graph.Vertex{29})
	if !slices.Equal(col.Sample(10), sets[10]) {
		t.Fatal("appending to a range view overwrote the parent's next sample")
	}
	col.Append([]graph.Vertex{0, 1})
	tail := col.Range(30, 41)
	col.Append([]graph.Vertex{2})
	if tail.Count() != 11 || !slices.Equal(tail.Sample(10), []graph.Vertex{0, 1}) {
		t.Fatal("appending to the parent changed a range view")
	}
}
