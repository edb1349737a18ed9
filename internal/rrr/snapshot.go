package rrr

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"influmax/internal/graph"
)

// Snapshot format: the persistent form of a sampled sketch, so a serving
// process can warm-start from disk instead of re-running the minutes-long
// sampling phase. One snapshot holds a CodedCollection (with its optional
// relabel table), its optional CSR inverted-incidence Index, and the
// SnapshotMeta identifying the configuration the sketch was sampled for.
// Layout (all integers little-endian; normative spec in DESIGN.md §13):
//
//	magic   [8]byte  "IMXSNAP\x01"
//	version uint32   (currently 3)
//	meta    graphDigest u64 | model u64 | epsilonBits u64 |
//	        kMax u64 | seed u64 | theta u64
//	store   n u64 | count u64 | total u64 | dataLen u64 |
//	        blockOffs ceil(count/64)*i64 | data[dataLen]
//	relab   present u64 (0|1); if 1: table n*u32 (code -> original id)
//	index   present u64 (0|1); if 1:
//	        offsets (n+1)*i64 | samplesLen u64 | samples samplesLen*i32
//	deltas  batches u64 | per batch:
//	        ops u64 | per op: kind u8 | src u32 | dst u32 | wBits u32
//	        then sectionCRC u32 (CRC-32C of the section bytes above)
//	crc     uint32  (CRC-32C of every preceding byte, magic included)
//
// The delta section is the replay log of a dynamic sketch (DESIGN.md §15):
// graphDigest identifies the BASE graph, and a warm restart replays the
// logged batches over it to reconstruct the graph the persisted samples
// were maintained against. Batch boundaries are preserved because
// per-batch weight re-derivation (weighted cascade, LT normalization) is
// not replay-once-safe. The section carries its own checksum — guarding
// the pointer-dense log independently — in addition to the whole-file CRC.
//
// The reader validates every header field before trusting it, mirroring
// the TCP transport's frame discipline (internal/mpi/frame.go): a size
// claim past the configured bound is a SnapshotError, buffers grow in
// bounded chunks as bytes actually arrive (an adversarial header cannot
// force a max-size allocation up front), structural invariants (monotone
// offsets, section lengths that agree) are checked after decode, and the
// trailing checksum must match. Encoding is deterministic: save -> load ->
// save reproduces the file byte for byte.

// snapshotMagic identifies the file type and format generation.
var snapshotMagic = [8]byte{'I', 'M', 'X', 'S', 'N', 'A', 'P', 1}

// SnapshotVersion is the current snapshot wire-format version. Version 2
// replaced the per-sample offset/size store of version 1 with the
// block-coded layout; version 3 appended the CRC-guarded delta-log
// section. Any other version is rejected with a SnapshotError — snapshots
// are regenerable caches, so the remedy is to rebuild: resample and save a
// fresh one.
const SnapshotVersion = 3

// DefaultMaxSnapshotBytes is the largest snapshot a reader accepts unless
// the caller overrides the bound (4 GiB).
const DefaultMaxSnapshotBytes int64 = 4 << 30

// snapshotAllocChunk bounds how much buffer is grown ahead of the bytes
// actually read, like the transport's frameAllocChunk.
const snapshotAllocChunk = 64 << 10

// SnapshotMeta identifies the configuration a snapshot's sketch was
// sampled for; a loader rejects snapshots whose meta does not match the
// graph and parameters it intends to serve.
type SnapshotMeta struct {
	// GraphDigest is the stable digest of the sampled graph
	// (graph.Graph.Digest): structure and weights.
	GraphDigest uint64
	// Model is the diffusion model ordinal (diffuse.Model).
	Model uint8
	// Epsilon is the accuracy parameter theta was sized for.
	Epsilon float64
	// KMax is the seed-set bound theta was sized for; queries for any
	// k <= KMax are served from the sketch.
	KMax int
	// Seed fed the sampling streams.
	Seed uint64
	// Theta is the sample count the estimation phase settled on.
	Theta int64
}

// SnapshotError reports a snapshot rejected during load: bad magic,
// unsupported version, an over-limit size claim, a structural
// inconsistency, or a checksum mismatch.
type SnapshotError struct {
	Reason string
}

func (e *SnapshotError) Error() string { return "rrr: invalid snapshot: " + e.Reason }

// WriteSnapshot serializes meta, col, idx (may be nil) and the delta
// replay log (may be nil/empty) to w in the versioned, checksummed
// snapshot format.
func WriteSnapshot(w io.Writer, meta SnapshotMeta, col *CodedCollection, idx *Index, deltas []graph.Delta) error {
	crc := crc32.New(castagnoli)
	sw := &snapshotWriter{w: io.MultiWriter(w, crc)}
	sw.raw(snapshotMagic[:])
	sw.u32(SnapshotVersion)

	sw.u64(meta.GraphDigest)
	sw.u64(uint64(meta.Model))
	sw.u64(math.Float64bits(meta.Epsilon))
	sw.u64(uint64(meta.KMax))
	sw.u64(meta.Seed)
	sw.u64(uint64(meta.Theta))

	sw.u64(uint64(col.n))
	sw.u64(uint64(col.count))
	sw.u64(uint64(col.total))
	sw.u64(uint64(len(col.data)))
	sw.int64s(col.blockOffs)
	sw.raw(col.data)

	if col.relab == nil {
		sw.u64(0)
	} else {
		sw.u64(1)
		sw.uint32s(col.relab.Table())
	}

	if idx == nil {
		sw.u64(0)
	} else {
		sw.u64(1)
		sw.int64s(idx.offsets)
		sw.u64(uint64(len(idx.samples)))
		sw.int32s(idx.samples)
	}

	// Delta-log section, with its own CRC over the section bytes: the
	// section checksum is written through the file-CRC stream too, so the
	// trailing checksum still covers the whole file.
	sec := crc32.New(castagnoli)
	inner := sw.w
	sw.w = io.MultiWriter(inner, sec)
	sw.u64(uint64(len(deltas)))
	for _, d := range deltas {
		sw.u64(uint64(len(d)))
		for _, op := range d {
			sw.raw([]byte{byte(op.Kind)})
			sw.u32(uint32(op.Src))
			sw.u32(uint32(op.Dst))
			sw.u32(math.Float32bits(op.W))
		}
	}
	sw.w = inner
	sw.u32(sec.Sum32())

	if sw.err != nil {
		return sw.err
	}
	// The trailing checksum covers everything written so far and is not
	// itself checksummed.
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// ReadSnapshot parses a snapshot from r, accepting at most maxBytes of
// payload claims (<= 0 uses DefaultMaxSnapshotBytes). The returned Index
// is nil when the snapshot was written without one, and the returned
// delta log is nil for an empty log.
func ReadSnapshot(r io.Reader, maxBytes int64) (SnapshotMeta, *CodedCollection, *Index, []graph.Delta, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxSnapshotBytes
	}
	crc := crc32.New(castagnoli)
	sr := &snapshotReader{r: io.TeeReader(r, crc), max: maxBytes}

	var meta SnapshotMeta
	var magic [8]byte
	sr.raw(magic[:])
	if sr.err == nil && magic != snapshotMagic {
		sr.fail("bad magic")
	}
	version := sr.u32()
	if sr.err == nil && version != SnapshotVersion {
		sr.fail(fmt.Sprintf("unsupported version %d (want %d; rebuild: resample and save a fresh snapshot)",
			version, SnapshotVersion))
	}

	meta.GraphDigest = sr.u64()
	if m := sr.u64(); sr.err == nil && m > 255 {
		sr.fail(fmt.Sprintf("model ordinal %d out of range", m))
	} else {
		meta.Model = uint8(m)
	}
	meta.Epsilon = math.Float64frombits(sr.u64())
	meta.KMax = int(sr.claim("kMax"))
	meta.Seed = sr.u64()
	meta.Theta = sr.claim("theta")

	n := sr.claim("vertex count")
	count := sr.claim("sample count")
	total := sr.claim("total entries")
	dataLen := sr.claim("data length")
	nBlocks := (count + codedBlockSamples - 1) >> codedBlockShift
	col := &CodedCollection{
		n:         int(n),
		count:     int(count),
		total:     total,
		blockOffs: sr.int64s(nBlocks, "store block offsets"),
		data:      sr.bytes(dataLen, "store data"),
	}
	switch present := sr.u64(); {
	case sr.err != nil:
	case present == 1:
		table := sr.uint32s(n, "relabel table")
		if sr.err == nil {
			relab, err := relabelingFromTable(table)
			if err != nil {
				sr.fail(err.Error())
			} else {
				col.relab = relab
			}
		}
	case present != 0:
		sr.fail("bad relabel-present flag")
	}
	if sr.err == nil {
		// Full structural walk: block offsets, length prefixes, varint
		// payloads, strict ascent, code range, count and total agreement.
		if err := validateCoded(col.n, col.count, col.total, col.blockOffs, col.data); err != nil {
			sr.fail(err.Error())
		}
	}

	var idx *Index
	switch present := sr.u64(); {
	case sr.err != nil:
	case present == 1:
		idx = &Index{offsets: sr.int64s(n+1, "index offsets"), count: col.count}
		samplesLen := sr.claim("index samples length")
		idx.samples = sr.int32s(samplesLen, "index samples")
		if sr.err == nil {
			if idx.offsets[0] != 0 || idx.offsets[n] != samplesLen {
				sr.fail("index offsets disagree with samples length")
			}
			for v := 0; sr.err == nil && v < int(n); v++ {
				if idx.offsets[v] > idx.offsets[v+1] {
					sr.fail(fmt.Sprintf("index offsets not monotone at vertex %d", v))
				}
			}
		}
	case present != 0:
		sr.fail("bad index-present flag")
	}

	var deltas []graph.Delta
	if sr.err == nil {
		deltas = sr.deltaLog(n)
	}

	if sr.err == nil {
		want := crc.Sum32() // everything consumed so far
		var tail [4]byte
		if _, err := io.ReadFull(r, tail[:]); err != nil {
			sr.err = err
		} else if got := binary.LittleEndian.Uint32(tail[:]); got != want {
			sr.fail(fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", got, want))
		}
	}
	if sr.err != nil {
		return SnapshotMeta{}, nil, nil, nil, sr.err
	}
	return meta, col, idx, deltas, nil
}

// deltaLog parses the delta-log section, verifying its section CRC and
// every op against the vertex universe n before the log is trusted for
// replay. Returns nil for an empty log.
func (r *snapshotReader) deltaLog(n int64) []graph.Delta {
	sec := crc32.New(castagnoli)
	inner := r.r
	r.r = io.TeeReader(inner, sec)

	batches := r.claim("delta log: batch count")
	var deltas []graph.Delta
	for b := int64(0); b < batches && r.err == nil; b++ {
		ops := r.claim("delta log: op count")
		d := make(graph.Delta, 0, min(ops, snapshotAllocChunk/16))
		for o := int64(0); o < ops && r.err == nil; o++ {
			var kind [1]byte
			r.raw(kind[:])
			src, dst := r.u32(), r.u32()
			w := math.Float32frombits(r.u32())
			if r.err != nil {
				break
			}
			if kind[0] > uint8(graph.DeltaDelete) {
				r.fail(fmt.Sprintf("delta log: batch %d op %d has unknown kind %d", b, o, kind[0]))
				break
			}
			if int64(src) >= n || int64(dst) >= n {
				r.fail(fmt.Sprintf("delta log: batch %d op %d endpoint out of range [0,%d)", b, o, n))
				break
			}
			if !(w >= 0 && w <= 1) {
				r.fail(fmt.Sprintf("delta log: batch %d op %d weight %v outside [0,1]", b, o, w))
				break
			}
			d = append(d, graph.DeltaOp{
				Kind: graph.DeltaOpKind(kind[0]),
				Src:  graph.Vertex(src), Dst: graph.Vertex(dst), W: w,
			})
		}
		if r.err == nil {
			deltas = append(deltas, d)
		}
	}

	r.r = inner
	want := sec.Sum32()
	if got := r.u32(); r.err == nil && got != want {
		r.fail(fmt.Sprintf("delta log: section checksum mismatch (stored %08x, computed %08x)", got, want))
	}
	return deltas
}

// SaveSnapshotFile writes the snapshot atomically (see SaveAtomic).
func SaveSnapshotFile(path string, meta SnapshotMeta, col *CodedCollection, idx *Index, deltas []graph.Delta) error {
	return SaveAtomic(path, func(w io.Writer) error { return WriteSnapshot(w, meta, col, idx, deltas) })
}

// SaveAtomic writes a file through write atomically: to a buffered temp
// file in the target directory, synced, then renamed over path.
func SaveAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	bw := bufio.NewWriterSize(f, snapshotAllocChunk)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// LoadSnapshotFile reads a snapshot from path with the given payload bound
// (<= 0 uses DefaultMaxSnapshotBytes).
func LoadSnapshotFile(path string, maxBytes int64) (SnapshotMeta, *CodedCollection, *Index, []graph.Delta, error) {
	f, err := os.Open(path)
	if err != nil {
		return SnapshotMeta{}, nil, nil, nil, err
	}
	defer f.Close()
	return ReadSnapshot(bufio.NewReaderSize(f, snapshotAllocChunk), maxBytes)
}

// castagnoli is the CRC-32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapshotWriter serializes fields, latching the first error.
type snapshotWriter struct {
	w   io.Writer
	buf [snapshotAllocChunk]byte
	err error
}

func (w *snapshotWriter) raw(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

func (w *snapshotWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.raw(b[:])
}

func (w *snapshotWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.raw(b[:])
}

// int64s writes a slice through the chunk buffer, bounding transient
// encoding memory regardless of array size.
func (w *snapshotWriter) int64s(vs []int64) {
	const per = 8
	for len(vs) > 0 && w.err == nil {
		batch := min(len(vs), len(w.buf)/per)
		for i, v := range vs[:batch] {
			binary.LittleEndian.PutUint64(w.buf[i*per:], uint64(v))
		}
		w.raw(w.buf[:batch*per])
		vs = vs[batch:]
	}
}

func (w *snapshotWriter) int32s(vs []int32) {
	const per = 4
	for len(vs) > 0 && w.err == nil {
		batch := min(len(vs), len(w.buf)/per)
		for i, v := range vs[:batch] {
			binary.LittleEndian.PutUint32(w.buf[i*per:], uint32(v))
		}
		w.raw(w.buf[:batch*per])
		vs = vs[batch:]
	}
}

func (w *snapshotWriter) uint32s(vs []uint32) {
	const per = 4
	for len(vs) > 0 && w.err == nil {
		batch := min(len(vs), len(w.buf)/per)
		for i, v := range vs[:batch] {
			binary.LittleEndian.PutUint32(w.buf[i*per:], v)
		}
		w.raw(w.buf[:batch*per])
		vs = vs[batch:]
	}
}

// snapshotReader parses fields, latching the first error and enforcing the
// max-size bound on every length claim before allocating for it.
type snapshotReader struct {
	r   io.Reader
	max int64
	err error
}

func (r *snapshotReader) fail(reason string) {
	if r.err == nil {
		r.err = &SnapshotError{Reason: reason}
	}
}

func (r *snapshotReader) raw(b []byte) {
	if r.err == nil {
		_, r.err = io.ReadFull(r.r, b)
	}
}

func (r *snapshotReader) u32() uint32 {
	var b [4]byte
	r.raw(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (r *snapshotReader) u64() uint64 {
	var b [8]byte
	r.raw(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// claim reads a u64 header field that counts things and validates it
// against the snapshot bound before anyone sizes an allocation from it.
func (r *snapshotReader) claim(what string) int64 {
	v := r.u64()
	if r.err == nil && v > uint64(r.max) {
		r.fail(fmt.Sprintf("%s claims %d, max %d", what, v, r.max))
	}
	return int64(v)
}

// bytes reads length bytes, growing the buffer in bounded chunks as bytes
// actually arrive (readFrame's allocation discipline).
func (r *snapshotReader) bytes(length int64, what string) []byte {
	if r.err != nil {
		return nil
	}
	if length < 0 || length > r.max {
		r.fail(fmt.Sprintf("%s claims %d bytes, max %d", what, length, r.max))
		return nil
	}
	buf := make([]byte, 0, min(length, snapshotAllocChunk))
	for remaining := length; remaining > 0 && r.err == nil; {
		n := min(remaining, snapshotAllocChunk)
		start := len(buf)
		buf = append(buf, make([]byte, n)...)
		r.raw(buf[start:])
		remaining -= n
	}
	return buf
}

func (r *snapshotReader) int64s(count int64, what string) []int64 {
	const per = 8
	if r.err != nil {
		return nil
	}
	if count < 0 || count > r.max/per {
		r.fail(fmt.Sprintf("%s claims %d entries, max %d", what, count, r.max/per))
		return nil
	}
	vs := make([]int64, 0, min(count, snapshotAllocChunk/per))
	var chunk [snapshotAllocChunk]byte
	for remaining := count; remaining > 0 && r.err == nil; {
		batch := min(remaining, int64(len(chunk)/per))
		b := chunk[:batch*per]
		r.raw(b)
		for i := int64(0); i < batch; i++ {
			vs = append(vs, int64(binary.LittleEndian.Uint64(b[i*per:])))
		}
		remaining -= batch
	}
	return vs
}

func (r *snapshotReader) uint32s(count int64, what string) []uint32 {
	const per = 4
	if r.err != nil {
		return nil
	}
	if count < 0 || count > r.max/per {
		r.fail(fmt.Sprintf("%s claims %d entries, max %d", what, count, r.max/per))
		return nil
	}
	vs := make([]uint32, 0, min(count, snapshotAllocChunk/per))
	var chunk [snapshotAllocChunk]byte
	for remaining := count; remaining > 0 && r.err == nil; {
		batch := min(remaining, int64(len(chunk)/per))
		b := chunk[:batch*per]
		r.raw(b)
		for i := int64(0); i < batch; i++ {
			vs = append(vs, binary.LittleEndian.Uint32(b[i*per:]))
		}
		remaining -= batch
	}
	return vs
}

func (r *snapshotReader) int32s(count int64, what string) []int32 {
	const per = 4
	if r.err != nil {
		return nil
	}
	if count < 0 || count > r.max/per {
		r.fail(fmt.Sprintf("%s claims %d entries, max %d", what, count, r.max/per))
		return nil
	}
	vs := make([]int32, 0, min(count, snapshotAllocChunk/per))
	var chunk [snapshotAllocChunk]byte
	for remaining := count; remaining > 0 && r.err == nil; {
		batch := min(remaining, int64(len(chunk)/per))
		b := chunk[:batch*per]
		r.raw(b)
		for i := int64(0); i < batch; i++ {
			vs = append(vs, int32(binary.LittleEndian.Uint32(b[i*per:])))
		}
		remaining -= batch
	}
	return vs
}
