package rrr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"influmax/internal/graph"
	"influmax/internal/rng"
)

// snapshotFixture builds a coded store (frequency-relabeled on odd seeds,
// identity on even), its index and a meta block from a seed.
func snapshotFixture(seed uint64, n, count int) (SnapshotMeta, *CodedCollection, *Index) {
	r := rng.New(rng.NewLCG(seed))
	flat := NewCollection(n)
	for i := 0; i < count; i++ {
		flat.Append(randomSortedSet(r, n, r.Float64()*0.4))
	}
	var relab *Relabeling
	if seed%2 == 1 {
		relab = NewRelabeling(IncidenceOf(flat, 2))
	}
	col := FromCollection(flat, relab)
	idx := BuildIndexCoded(col, 3)
	meta := SnapshotMeta{
		GraphDigest: seed * 0x9e3779b97f4a7c15,
		Model:       uint8(seed % 2),
		Epsilon:     0.13,
		KMax:        int(seed%50) + 1,
		Seed:        seed,
		Theta:       int64(count),
	}
	return meta, col, idx
}

func encodeSnapshot(t *testing.T, meta SnapshotMeta, col *CodedCollection, idx *Index, deltas []graph.Delta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, meta, col, idx, deltas); err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTripByteIdentical is the property test of the format:
// save -> load -> save is byte-identical, and the loaded store and index
// behave exactly like the originals.
func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	check := func(seed uint64) bool {
		n := int(seed%300) + 2
		meta, col, idx := snapshotFixture(seed, n, int(seed%40)+1)
		deltas := fixtureDeltaLog(seed, n)
		first := encodeSnapshot(t, meta, col, idx, deltas)

		gotMeta, gotCol, gotIdx, gotDeltas, err := ReadSnapshot(bytes.NewReader(first), 0)
		if err != nil {
			t.Logf("seed %d: load: %v", seed, err)
			return false
		}
		if gotMeta != meta {
			t.Logf("seed %d: meta mismatch: %+v != %+v", seed, gotMeta, meta)
			return false
		}
		if !deltaLogsEqual(gotDeltas, deltas) {
			t.Logf("seed %d: delta log mismatch", seed)
			return false
		}
		second := encodeSnapshot(t, gotMeta, gotCol, gotIdx, gotDeltas)
		if !bytes.Equal(first, second) {
			t.Logf("seed %d: re-encode differs", seed)
			return false
		}
		if gotCol.Relabeled() != col.Relabeled() {
			t.Logf("seed %d: labeling lost", seed)
			return false
		}
		var a, b []graph.Vertex
		for i := 0; i < col.Count(); i++ {
			a, b = col.SampleSorted(i, a), gotCol.SampleSorted(i, b)
			if !slices.Equal(a, b) && !(len(a) == 0 && len(b) == 0) {
				return false
			}
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(idx.SamplesOf(graph.Vertex(v)), gotIdx.SamplesOf(graph.Vertex(v))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotWithoutIndex checks the index-absent path: flag 0, nil index
// on load, still byte-identical on re-encode.
func TestSnapshotWithoutIndex(t *testing.T) {
	meta, col, _ := snapshotFixture(7, 64, 12)
	first := encodeSnapshot(t, meta, col, nil, nil)
	gotMeta, gotCol, gotIdx, gotDeltas, err := ReadSnapshot(bytes.NewReader(first), 0)
	if err != nil {
		t.Fatal(err)
	}
	if gotIdx != nil {
		t.Fatal("index materialized out of nowhere")
	}
	if gotDeltas != nil {
		t.Fatal("delta log materialized out of nowhere")
	}
	if !bytes.Equal(first, encodeSnapshot(t, gotMeta, gotCol, nil, nil)) {
		t.Fatal("re-encode differs")
	}
}

// TestSnapshotRejectsCorruption flips, truncates and inflates a valid
// snapshot and checks every mutation is rejected rather than accepted or
// panicking.
func TestSnapshotRejectsCorruption(t *testing.T) {
	meta, col, idx := snapshotFixture(3, 120, 25)
	valid := encodeSnapshot(t, meta, col, idx, fixtureDeltaLog(3, 120))

	load := func(b []byte, max int64) error {
		_, _, _, _, err := ReadSnapshot(bytes.NewReader(b), max)
		return err
	}

	t.Run("bad magic", func(t *testing.T) {
		b := slices.Clone(valid)
		b[0] ^= 0xff
		var serr *SnapshotError
		if err := load(b, 0); !errors.As(err, &serr) {
			t.Fatalf("got %v, want SnapshotError", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := slices.Clone(valid)
		b[8] = 0xee
		var serr *SnapshotError
		if err := load(b, 0); !errors.As(err, &serr) {
			t.Fatalf("got %v, want SnapshotError", err)
		}
	})
	t.Run("oversize claim", func(t *testing.T) {
		// The vertex-count claim (first field of the store section, after
		// magic+version+6 meta words) forced past the bound.
		b := slices.Clone(valid)
		off := 8 + 4 + 6*8
		for i := 0; i < 8; i++ {
			b[off+i] = 0xff
		}
		var serr *SnapshotError
		if err := load(b, 1<<20); !errors.As(err, &serr) {
			t.Fatalf("got %v, want SnapshotError", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{len(valid) / 3, len(valid) - 3, 11, 20} {
			err := load(valid[:cut], 0)
			if err == nil {
				t.Fatalf("accepted %d-byte prefix", cut)
			}
			var serr *SnapshotError
			if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) && !errors.As(err, &serr) {
				t.Fatalf("cut %d: unexpected error %v", cut, err)
			}
		}
	})
	t.Run("payload bit flip fails checksum", func(t *testing.T) {
		b := slices.Clone(valid)
		b[len(b)/2] ^= 0x40
		err := load(b, 0)
		var serr *SnapshotError
		if !errors.As(err, &serr) {
			t.Fatalf("got %v, want SnapshotError", err)
		}
	})
	t.Run("trailing garbage ignored", func(t *testing.T) {
		// A reader consuming from a stream must not read past the
		// checksum.
		b := append(slices.Clone(valid), 0xde, 0xad)
		if err := load(b, 0); err != nil {
			t.Fatalf("trailing bytes broke the load: %v", err)
		}
	})
}

// TestSnapshotFileRoundTrip exercises the atomic file save/load pair.
func TestSnapshotFileRoundTrip(t *testing.T) {
	meta, col, idx := snapshotFixture(9, 80, 18)
	path := filepath.Join(t.TempDir(), "sketch.snap")
	deltas := fixtureDeltaLog(9, 80)
	if err := SaveSnapshotFile(path, meta, col, idx, deltas); err != nil {
		t.Fatal(err)
	}
	gotMeta, gotCol, gotIdx, gotDeltas, err := LoadSnapshotFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta || gotCol.Count() != col.Count() || gotIdx == nil {
		t.Fatalf("round trip lost data: %+v, count %d", gotMeta, gotCol.Count())
	}
	if !deltaLogsEqual(gotDeltas, deltas) {
		t.Fatal("round trip lost the delta log")
	}
}

// TestSnapshotRejectsVersion1 pins the version discipline: a version-1
// header is refused with a SnapshotError telling the operator to resample
// (snapshots are regenerable caches; there is no migration path).
func TestSnapshotRejectsVersion1(t *testing.T) {
	meta, col, idx := snapshotFixture(4, 50, 10)
	b := encodeSnapshot(t, meta, col, idx, nil)
	binary.LittleEndian.PutUint32(b[8:], 1)
	_, _, _, _, err := ReadSnapshot(bytes.NewReader(b), 0)
	var serr *SnapshotError
	if !errors.As(err, &serr) {
		t.Fatalf("got %v, want SnapshotError", err)
	}
	if !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "resample") {
		t.Fatalf("rejection does not name the version or the remedy: %v", err)
	}
}

// TestSnapshotRelabelTableRoundTrip checks the relabel section explicitly:
// a frequency-relabeled store comes back with the identical code->original
// table, and an identity store comes back with none.
func TestSnapshotRelabelTableRoundTrip(t *testing.T) {
	meta, col, idx := snapshotFixture(13, 70, 20) // odd seed: relabeled
	if !col.Relabeled() {
		t.Fatal("fixture not relabeled")
	}
	_, got, _, _, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, meta, col, idx, nil)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Relabeling().Table(), col.Relabeling().Table()) {
		t.Fatal("relabel table changed across the round trip")
	}

	meta, col, idx = snapshotFixture(12, 70, 20) // even seed: identity
	if col.Relabeled() {
		t.Fatal("fixture unexpectedly relabeled")
	}
	_, got, _, _, err = ReadSnapshot(bytes.NewReader(encodeSnapshot(t, meta, col, idx, nil)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Relabeled() {
		t.Fatal("identity store came back relabeled")
	}
}

// TestSnapshotRejectsBadRelabelTable corrupts the relabel table into a
// non-permutation and checks the load is refused.
func TestSnapshotRejectsBadRelabelTable(t *testing.T) {
	meta, col, idx := snapshotFixture(13, 64, 12)
	b := encodeSnapshot(t, meta, col, idx, nil)
	// The relabel table sits right after the store section; duplicate its
	// first entry into the second to break the permutation, then fix the
	// checksum so only the table validation can object.
	off := 8 + 4 + 6*8 + 4*8 + len(col.blockOffs)*8 + len(col.data) + 8
	copy(b[off+4:off+8], b[off:off+4])
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
	_, _, _, _, err := ReadSnapshot(bytes.NewReader(b), 0)
	var serr *SnapshotError
	if !errors.As(err, &serr) {
		t.Fatalf("got %v, want SnapshotError", err)
	}
}

// fixtureDeltaLog derives a small valid delta log over n vertices from
// seed (nil for even seeds, so the empty-log path stays covered by the
// round-trip property).
func fixtureDeltaLog(seed uint64, n int) []graph.Delta {
	if seed%2 == 0 {
		return nil
	}
	r := rng.New(rng.NewLCG(seed))
	v := func() graph.Vertex { return graph.Vertex(r.Intn(n)) }
	batches := 1 + int(seed%3)
	log := make([]graph.Delta, 0, batches)
	for b := 0; b < batches; b++ {
		var d graph.Delta
		for o := 0; o <= r.Intn(4); o++ {
			if r.Intn(3) == 0 {
				d = append(d, graph.DeltaOp{Kind: graph.DeltaDelete, Src: v(), Dst: v()})
			} else {
				d = append(d, graph.DeltaOp{Kind: graph.DeltaInsert, Src: v(), Dst: v(), W: r.Float32()})
			}
		}
		log = append(log, d)
	}
	return log
}

func deltaLogsEqual(a, b []graph.Delta) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// deltaSectionBytes returns the encoded size of a delta log section,
// excluding its trailing section CRC.
func deltaSectionBytes(deltas []graph.Delta) int {
	size := 8
	for _, d := range deltas {
		size += 8 + 13*len(d)
	}
	return size
}

// TestSnapshotRejectsVersion2 pins the end of the version-2 read path: a
// version-2 file (the v3 layout minus the delta section) is refused with a
// SnapshotError that names the version and tells the operator to rebuild,
// exactly like version 1.
func TestSnapshotRejectsVersion2(t *testing.T) {
	meta, col, idx := snapshotFixture(5, 60, 10)
	v3 := encodeSnapshot(t, meta, col, idx, nil)

	// An empty v3 delta section is batches=0 (8 bytes) + section CRC (4);
	// stripping it and re-stamping version 2 reconstructs the exact v2
	// encoding of the same sketch.
	prefix := slices.Clone(v3[:len(v3)-16])
	binary.LittleEndian.PutUint32(prefix[8:], 2)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.Checksum(prefix, castagnoli))
	v2 := append(prefix, tail[:]...)

	_, _, _, _, err := ReadSnapshot(bytes.NewReader(v2), 0)
	var serr *SnapshotError
	if !errors.As(err, &serr) {
		t.Fatalf("got %v, want SnapshotError", err)
	}
	if !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("rejection does not name the version or the remedy: %v", err)
	}
}

// TestSnapshotRejectsCorruptDeltaLog corrupts the delta-log section every
// way the format guards against and checks each is refused with a typed
// SnapshotError naming the section — the file-level CRC is repaired for
// each case, so only the section's own validation can object.
func TestSnapshotRejectsCorruptDeltaLog(t *testing.T) {
	const n = 60
	meta, col, idx := snapshotFixture(6, n, 10)
	deltas := []graph.Delta{
		{
			{Kind: graph.DeltaInsert, Src: 1, Dst: 2, W: 0.5},
			{Kind: graph.DeltaDelete, Src: 2, Dst: 3},
		},
		{{Kind: graph.DeltaInsert, Src: 4, Dst: 5, W: 0.25}},
	}
	valid := encodeSnapshot(t, meta, col, idx, deltas)
	secLen := deltaSectionBytes(deltas)
	secStart := len(valid) - 4 - 4 - secLen
	const (
		opKindOff = 16 // batches u64 + ops u64
		opSrcOff  = 17
		opWOff    = 25
	)

	// fixCRCs recomputes the section CRC and then the file CRC, so a test
	// mutation is visible only to the delta-log validation itself.
	fixCRCs := func(b []byte) {
		secEnd := len(b) - 8
		binary.LittleEndian.PutUint32(b[secEnd:], crc32.Checksum(b[secStart:secEnd], castagnoli))
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
	}
	loadErr := func(b []byte) error {
		_, _, _, _, err := ReadSnapshot(bytes.NewReader(b), 0)
		return err
	}
	requireDeltaLogError := func(t *testing.T, err error, want string) {
		t.Helper()
		var serr *SnapshotError
		if !errors.As(err, &serr) {
			t.Fatalf("got %v, want SnapshotError", err)
		}
		if !strings.Contains(err.Error(), "delta log") || !strings.Contains(err.Error(), want) {
			t.Fatalf("rejection %q does not name the delta log and %q", err, want)
		}
	}

	t.Run("section bit flip fails section checksum", func(t *testing.T) {
		b := slices.Clone(valid)
		b[secStart+opSrcOff] ^= 0x01
		// Repair only the FILE checksum: the section checksum must catch it.
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
		requireDeltaLogError(t, loadErr(b), "checksum")
	})
	t.Run("unknown op kind", func(t *testing.T) {
		b := slices.Clone(valid)
		b[secStart+opKindOff] = 7
		fixCRCs(b)
		requireDeltaLogError(t, loadErr(b), "unknown kind")
	})
	t.Run("endpoint out of range", func(t *testing.T) {
		b := slices.Clone(valid)
		binary.LittleEndian.PutUint32(b[secStart+opSrcOff:], n+100)
		fixCRCs(b)
		requireDeltaLogError(t, loadErr(b), "out of range")
	})
	t.Run("weight out of range", func(t *testing.T) {
		b := slices.Clone(valid)
		binary.LittleEndian.PutUint32(b[secStart+opWOff:], math.Float32bits(2.0))
		fixCRCs(b)
		requireDeltaLogError(t, loadErr(b), "weight")
	})
	t.Run("NaN weight", func(t *testing.T) {
		b := slices.Clone(valid)
		binary.LittleEndian.PutUint32(b[secStart+opWOff:], math.Float32bits(float32(math.NaN())))
		fixCRCs(b)
		requireDeltaLogError(t, loadErr(b), "weight")
	})
	t.Run("truncated mid-section", func(t *testing.T) {
		err := loadErr(valid[:secStart+opWOff])
		var serr *SnapshotError
		if err == nil {
			t.Fatal("accepted a snapshot truncated inside the delta section")
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) && !errors.As(err, &serr) {
			t.Fatalf("unexpected error %v", err)
		}
	})
	t.Run("absurd batch count", func(t *testing.T) {
		b := slices.Clone(valid)
		for i := 0; i < 8; i++ {
			b[secStart+i] = 0xff
		}
		fixCRCs(b)
		requireDeltaLogError(t, loadErr(b), "batch count")
	})
}
