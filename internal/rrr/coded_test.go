package rrr

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"influmax/internal/graph"
	"influmax/internal/rng"
)

func randomSortedSet(r *rng.Rand, n int, density float64) []graph.Vertex {
	var set []graph.Vertex
	for v := 0; v < n; v++ {
		if r.Float64() < density {
			set = append(set, graph.Vertex(v))
		}
	}
	return set
}

// codedPair builds a flat Collection and its coded transcode under the
// frequency relabeling (or identity when relabeled is false) from random
// sorted sets.
func codedPair(seed uint64, n, count int, density float64, relabeled bool) (*Collection, *CodedCollection) {
	r := rng.New(rng.NewLCG(seed))
	flat := NewCollection(n)
	for i := 0; i < count; i++ {
		flat.Append(randomSortedSet(r, n, density))
	}
	var relab *Relabeling
	if relabeled {
		relab = NewRelabeling(IncidenceOf(flat, 3))
	}
	return flat, FromCollection(flat, relab)
}

// TestCodedRoundTrip is the property test of the coding: for both
// labelings, SampleSorted must reproduce every appended set exactly.
func TestCodedRoundTrip(t *testing.T) {
	check := func(seed uint64, relabeled bool) bool {
		n := 200
		flat, c := codedPair(seed, n, 20, 0.3, relabeled)
		var buf []graph.Vertex
		for i := 0; i < flat.Count(); i++ {
			buf = c.SampleSorted(i, buf)
			want := flat.Sample(i)
			if len(want) == 0 && len(buf) == 0 {
				continue
			}
			if !slices.Equal(buf, want) {
				return false
			}
		}
		return c.Count() == 20 && c.TotalSize() == flat.TotalSize()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCodedAppendMembersSetEqual checks the hot decode path: appendMembers
// yields the same member set as the flat store (in code order, which under
// a relabeling is not id order — the consumers are order-insensitive).
func TestCodedAppendMembersSetEqual(t *testing.T) {
	flat, c := codedPair(21, 120, 30, 0.25, true)
	var buf []graph.Vertex
	for i := 0; i < flat.Count(); i++ {
		buf = c.appendMembers(i, buf[:0])
		got := slices.Clone(buf)
		slices.Sort(got)
		if !slices.Equal(got, flat.Sample(i)) && !(len(got) == 0 && len(flat.Sample(i)) == 0) {
			t.Fatalf("sample %d decodes to %v, want %v", i, got, flat.Sample(i))
		}
	}
}

func TestCodedCountAllMatchesFlat(t *testing.T) {
	for _, relabeled := range []bool{false, true} {
		flat, c := codedPair(9, 100, 25, 0.3, relabeled)
		covered := NewBitset(25)
		covered.Set(3)
		covered.Set(17)
		a := make([]int32, 100)
		b := make([]int32, 100)
		c.CountAll(a, covered)
		flat.CountRange(b, covered, 0, graph.Vertex(100))
		if !slices.Equal(a, b) {
			t.Fatalf("relabeled=%v: coded counting disagrees with flat store", relabeled)
		}
	}
}

// TestCodedSmallerOnClusteredSets pins the compression story: dense runs
// of consecutive ids cost ~1 byte per member against 4 in the flat arena,
// and FlatBytes reports exactly what the flat layout would have cost.
func TestCodedSmallerOnClusteredSets(t *testing.T) {
	n := 10000
	flat := NewCollection(n)
	set := make([]graph.Vertex, 2000)
	for i := range set {
		set[i] = graph.Vertex(3000 + i) // consecutive block
	}
	for i := 0; i < 50; i++ {
		flat.Append(set)
	}
	c := FromCollection(flat, NewRelabeling(IncidenceOf(flat, 2)))
	if c.Bytes() >= flat.Bytes()/2 {
		t.Fatalf("coded %d B not well below flat %d B", c.Bytes(), flat.Bytes())
	}
	if c.TotalSize() != flat.TotalSize() {
		t.Fatal("cardinality accounting differs")
	}
	if c.FlatBytes() != flat.Bytes() {
		t.Fatalf("FlatBytes() = %d, flat store reports %d", c.FlatBytes(), flat.Bytes())
	}
}

func TestCodedEmptySample(t *testing.T) {
	c := newCodedCollection(10, nil)
	c.appendSet(nil)
	c.appendSet([]graph.Vertex{0, 9})
	if got := c.SampleSorted(0, nil); len(got) != 0 {
		t.Fatalf("empty sample decoded to %v", got)
	}
	if !slices.Equal(c.SampleSorted(1, nil), []graph.Vertex{0, 9}) {
		t.Fatal("boundary sample wrong")
	}
}

func TestCodedLargeIDs(t *testing.T) {
	// Multi-byte varints: ids near the top of the uint32 range. The
	// universe is 2^31, one short of it on a 32-bit int (Append reads
	// only the ids).
	n := min(1<<31, math.MaxInt)
	c := newCodedCollection(n, nil)
	set := []graph.Vertex{5, 1 << 20, 1 << 28, 1<<31 - 1}
	c.appendSet(set)
	if !slices.Equal(c.SampleSorted(0, nil), set) {
		t.Fatalf("large ids corrupted: %v", c.SampleSorted(0, nil))
	}
}

// TestCodedBlockBoundaries appends past several block boundaries and
// random-accesses every sample: the per-block offset plus length-skip
// lookup must locate each one (off-by-one block bugs die here).
func TestCodedBlockBoundaries(t *testing.T) {
	n := 500
	count := 3*codedBlockSamples + 7 // spans 4 blocks, last one partial
	flat, c := codedPair(13, n, count, 0.1, true)
	if len(c.blockOffs) != 4 {
		t.Fatalf("%d samples produced %d block offsets, want 4", count, len(c.blockOffs))
	}
	var buf []graph.Vertex
	for _, i := range []int{0, 63, 64, 65, 127, 128, 191, 192, count - 1} {
		buf = c.SampleSorted(i, buf)
		if !slices.Equal(buf, flat.Sample(i)) && !(len(buf) == 0 && len(flat.Sample(i)) == 0) {
			t.Fatalf("sample %d across block boundary decodes wrong", i)
		}
	}
}

// TestCodedRecode checks cross-labeling transcoding: identity -> frequency
// -> identity preserves every sample, and the final store is byte-identical
// to a direct identity transcode (the coding is canonical per labeling).
func TestCodedRecode(t *testing.T) {
	flat, ident := codedPair(31, 80, 40, 0.25, false)
	relab := NewRelabeling(IncidenceOf(flat, 2))
	coded := ident.Recode(relab)
	if !coded.Relabeled() {
		t.Fatal("recode lost the labeling")
	}
	back := coded.Recode(nil)
	if back.Relabeled() {
		t.Fatal("recode to identity kept a labeling")
	}
	if !slices.Equal(back.data, ident.data) || !slices.Equal(back.blockOffs, ident.blockOffs) {
		t.Fatal("identity recode not byte-identical to direct identity transcode")
	}
	var a []graph.Vertex
	for i := 0; i < flat.Count(); i++ {
		a = coded.SampleSorted(i, a)
		if !slices.Equal(a, flat.Sample(i)) && !(len(a) == 0 && len(flat.Sample(i)) == 0) {
			t.Fatalf("sample %d lost in recode", i)
		}
	}
}

// TestRelabelingFrequencyOrder pins the ordering contract: frequency
// descending, ties broken by ascending original id.
func TestRelabelingFrequencyOrder(t *testing.T) {
	freq := []int32{2, 5, 2, 0, 5, 1}
	r := NewRelabeling(freq)
	// freq 5: vertices 1, 4; freq 2: vertices 0, 2; freq 1: vertex 5; freq 0: vertex 3.
	want := []uint32{1, 4, 0, 2, 5, 3}
	if !slices.Equal(r.Table(), want) {
		t.Fatalf("table %v, want %v", r.Table(), want)
	}
	for c, v := range want {
		if r.codeOf(graph.Vertex(v)) != uint32(c) || r.origOf(uint32(c)) != graph.Vertex(v) {
			t.Fatalf("code/orig not inverse at code %d vertex %d", c, v)
		}
	}
	if r.Bytes() != int64(len(freq))*8 {
		t.Fatalf("Bytes() = %d, want %d (two u32 columns)", r.Bytes(), len(freq)*8)
	}
	var nilRelab *Relabeling
	if nilRelab.Bytes() != 0 {
		t.Fatal("nil relabeling has nonzero footprint")
	}
}

func TestRelabelingFromTable(t *testing.T) {
	r, err := relabelingFromTable([]uint32{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.codeOf(2) != 0 || r.origOf(2) != 1 {
		t.Fatal("reconstructed mapping wrong")
	}
	if _, err := relabelingFromTable([]uint32{0, 3, 1}); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
	if _, err := relabelingFromTable([]uint32{0, 1, 1}); err == nil {
		t.Fatal("duplicate entry accepted")
	}
}

// TestIncidenceOfMatchesIndexDegrees cross-checks the frequency vector
// against the inverted index's degree column for several worker counts.
func TestIncidenceOfMatchesIndexDegrees(t *testing.T) {
	flat, _ := codedPair(17, 60, 100, 0.2, false)
	idx := BuildIndex(flat, 2)
	for _, p := range []int{1, 3, 16} {
		freq := IncidenceOf(flat, p)
		for v := 0; v < 60; v++ {
			if int64(freq[v]) != idx.Degree(graph.Vertex(v)) {
				t.Fatalf("p=%d v=%d: incidence %d != index degree %d", p, v, freq[v], idx.Degree(graph.Vertex(v)))
			}
		}
	}
}

// TestValidateCoded runs the structural validator over honest stores and a
// few corruptions of each.
func TestValidateCoded(t *testing.T) {
	for _, relabeled := range []bool{false, true} {
		_, c := codedPair(7, 90, 70, 0.2, relabeled)
		if err := validateCoded(c.n, c.count, c.total, c.blockOffs, c.data); err != nil {
			t.Fatalf("relabeled=%v: honest store rejected: %v", relabeled, err)
		}
		if err := validateCoded(c.n, c.count, c.total+1, c.blockOffs, c.data); err == nil {
			t.Fatal("wrong total accepted")
		}
		if err := validateCoded(c.n, c.count, c.total, c.blockOffs[:0], c.data); err == nil {
			t.Fatal("missing block offsets accepted")
		}
		if err := validateCoded(c.n, c.count, c.total, c.blockOffs, c.data[:len(c.data)-1]); err == nil {
			t.Fatal("truncated data accepted")
		}
		if err := validateCoded(c.n, c.count, c.total, c.blockOffs, append(slices.Clone(c.data), 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
		bad := slices.Clone(c.blockOffs)
		if len(bad) > 1 {
			bad[1]++
			if err := validateCoded(c.n, c.count, c.total, bad, c.data); err == nil {
				t.Fatal("skewed block offset accepted")
			}
		}
	}
}

// TestRunDecoderMatchesColdDecode pins the run decoder to the per-sample
// lookup it shortcuts: for id lists that start mid-block, cross block
// boundaries, end on the last short block, repeat or run backwards, under
// both labelings, Append yields appendMembers' members in the same order
// and Accum the same counts. The samples hold gaps of every varint width
// (the identity store's reach past 2^21, the four-byte form) and a few are
// empty.
func TestRunDecoderMatchesColdDecode(t *testing.T) {
	const count = 3*codedBlockSamples + 20
	for _, relabeled := range []bool{false, true} {
		n := 1 << 22
		if relabeled {
			n = 70000 // the relabel tables are O(n); three-byte codes start at 16384
		}
		r := rng.New(rng.NewLCG(31))
		flat := NewCollection(n)
		for i := 0; i < count; i++ {
			var set []graph.Vertex
			for v, size := r.Intn(50), r.Intn(9); len(set) < size && v < n; {
				set = append(set, graph.Vertex(v))
				v += 1 + r.Intn([]int{3, 120, 16000, n / 3}[r.Intn(4)])
			}
			flat.Append(set)
		}
		var relab *Relabeling
		if relabeled {
			relab = NewRelabeling(IncidenceOf(flat, 2))
		}
		c := FromCollection(flat, relab)

		var all, strided, backwards []int32
		for i := 0; i < count; i++ {
			all = append(all, int32(i))
			if i%7 == 3 {
				strided = append(strided, int32(i))
			}
			backwards = append(backwards, int32(count-1-i))
		}
		lists := map[string][]int32{
			"all":          all,
			"mid-block on": all[37:],
			"strided":      strided,
			"short block":  all[3*codedBlockSamples:],
			"last only":    {count - 1},
			"block seams":  {62, 63, 64, 65, 127, 128, 191, 192},
			"repeats":      {5, 5, 6, 6, 70, 70},
			"backwards":    backwards,
		}
		for name, ids := range lists {
			run, acc := c.Run(), c.Run()
			got, want := make([]int32, n), make([]int32, n)
			for _, i := range ids {
				members := c.appendMembers(int(i), nil)
				sorted := slices.Clone(members)
				if slices.Sort(sorted); !slices.Equal(sorted, flat.Sample(int(i))) && len(sorted)+len(flat.Sample(int(i))) > 0 {
					t.Fatalf("relabeled=%v: sample %d decodes cold to %v, want %v", relabeled, i, sorted, flat.Sample(int(i)))
				}
				if ran := run.Append(int(i), nil); !slices.Equal(ran, members) {
					t.Fatalf("relabeled=%v %s: sample %d decodes in a run to %v, cold to %v", relabeled, name, i, ran, members)
				}
				acc.Accum(int(i), got, -1)
				for _, u := range members {
					want[u]--
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("relabeled=%v %s: Accum over the run disagrees with the cold decode", relabeled, name)
			}
		}
	}
}

// TestFromCollectionParallelMatchesSerial: the block-parallel transcode is
// byte-identical to the serial encoder — one Append per sample into one
// buffer — at any worker count, for sample counts that do and do not fill
// their last block, under the identity and the frequency labeling.
func TestFromCollectionParallelMatchesSerial(t *testing.T) {
	for _, count := range []int{0, 1, 63, 64, 65, 200, 449} {
		flat, _ := randomCollection(uint64(count)+5, 300, count, 0.05)
		for _, relab := range []*Relabeling{nil, NewRelabeling(IncidenceOf(flat, 2))} {
			serial := newCodedCollection(flat.NumVertices(), relab)
			for i := range flat.Count() {
				serial.appendSet(flat.Sample(i))
			}
			for _, p := range []int{1, 2, 4, 7} {
				got := FromCollectionParallel(flat, relab, p)
				if got.Count() != serial.Count() || got.TotalSize() != serial.TotalSize() ||
					!slices.Equal(got.data, serial.data) || !slices.Equal(got.blockOffs, serial.blockOffs) {
					t.Fatalf("count %d relabeled %v p %d: parallel transcode differs from the serial encoder",
						count, relab != nil, p)
				}
			}
		}
	}
}
