package rrr

import (
	"encoding/binary"
	"fmt"
	"slices"

	"influmax/internal/graph"
	"influmax/internal/par"
)

// CodedCollection stores RRR sets byte-coded: each sample's member list is
// expressed in code space (an optional frequency-ordered Relabeling, or
// original ids when relab is nil), sorted ascending, and delta+varint
// encoded — the first code verbatim, every following code as (gap - 1),
// since gaps in a strict ascent are >= 1. Samples are grouped into blocks
// of 64: one int64 byte offset is kept per block rather than per sample,
// and each sample's payload is preceded by a uvarint byte length, so
// random access costs one block lookup plus at most 63 length skips.
// Compared to the flat Collection's 4 bytes per entry + 8 bytes per
// sample, the coded layout spends ~1.1-1.4 bytes per entry on clustered
// graphs plus ~1 byte of length prefix and 0.125 bytes of amortized block
// offset per sample — the >= 3x footprint reduction gated by
// BenchmarkStoreFootprintGate. The wire format is specified normatively in
// DESIGN.md §13.
//
// The store is append-only and immutable once shared; decode paths
// (appendMembers, visitRange, CountAll) are safe for any number
// of concurrent readers.
type CodedCollection struct {
	n         int
	relab     *Relabeling // nil = identity labeling (codes are original ids)
	count     int
	total     int64   // summed cardinality of all samples
	blockOffs []int64 // byte offset of each block's first sample; len = ceil(count/64)
	data      []byte

	codeBuf []uint32 // Append scratch: one sample's codes
	encBuf  []byte   // Append scratch: one sample's encoded payload
}

// codedBlockShift and codedBlockSamples fix the block size at 64 samples:
// small enough that skipping to a sample inside a block is a handful of
// uvarint length reads, large enough that the per-block int64 offset
// amortizes to 1/8 byte per sample.
const (
	codedBlockShift   = 6
	codedBlockSamples = 1 << codedBlockShift
)

// newCodedCollection returns an empty coded store over n vertices. relab
// may be nil for the identity labeling; otherwise relab.Len() must equal n.
func newCodedCollection(n int, relab *Relabeling) *CodedCollection {
	if relab != nil && relab.Len() != n {
		panic(fmt.Sprintf("rrr: relabeling covers %d vertices, store has %d", relab.Len(), n))
	}
	return &CodedCollection{n: n, relab: relab}
}

// FromCollection transcodes every sample of col into a coded store under
// relab (nil for identity), with the default worker count
// (FromCollectionParallel). The flat arena is left untouched; callers
// drop it when the transcode is what they keep.
func FromCollection(col *Collection, relab *Relabeling) *CodedCollection {
	return FromCollectionParallel(col, relab, 0)
}

// FromCollectionParallel is FromCollection with p workers (p <= 0: the
// default), byte for byte. Blocks of 64 samples are independent apart
// from their byte offsets, so each worker encodes a contiguous run of
// whole blocks into a buffer of its own — including, under a relabeling,
// the sort of every sample's codes, the costly part — and the buffers
// are concatenated at the prefix sums of their lengths.
func FromCollectionParallel(col *Collection, relab *Relabeling, p int) *CodedCollection {
	n, count := col.NumVertices(), col.Count()
	blocks := (count + codedBlockSamples - 1) / codedBlockSamples
	p = max(1, clampWorkers(p, blocks))
	parts := make([]*CodedCollection, p)
	par.ForEach(blocks, p, func(rank, lo, hi int) {
		part := newCodedCollection(n, relab)
		first, end := lo*codedBlockSamples, min(hi*codedBlockSamples, count)
		// Size the buffer for the common case (most gaps fit one byte) to
		// avoid repeated growth.
		part.data = make([]byte, 0, col.offsets[end]-col.offsets[first]+int64(end-first)*2)
		for i := first; i < end; i++ {
			part.appendSet(col.Sample(i))
		}
		part.data = slices.Clip(part.data)
		parts[rank] = part
	})
	if p == 1 {
		return parts[0]
	}
	c := newCodedCollection(n, relab)
	bases := make([]int64, p+1)
	for r, part := range parts {
		bases[r+1] = bases[r] + int64(len(part.data))
		c.count += part.count
		c.total += part.total
	}
	c.data = make([]byte, bases[p])
	c.blockOffs = make([]int64, 0, blocks)
	for r, part := range parts {
		for _, off := range part.blockOffs {
			c.blockOffs = append(c.blockOffs, bases[r]+off)
		}
	}
	par.Run(p, func(rank int) { copy(c.data[bases[rank]:], parts[rank].data) })
	return c
}

// NumVertices returns the vertex-universe size.
func (c *CodedCollection) NumVertices() int { return c.n }

// Count returns the number of stored samples.
func (c *CodedCollection) Count() int { return c.count }

// TotalSize returns the summed cardinality of all samples.
func (c *CodedCollection) TotalSize() int64 { return c.total }

// Relabeled reports whether the store carries a non-identity labeling
// (decoded members then come out in code order, not ascending id order).
func (c *CodedCollection) Relabeled() bool { return c.relab != nil }

// Relabeling returns the store's labeling, nil for identity.
func (c *CodedCollection) Relabeling() *Relabeling { return c.relab }

// appendSet adds one sample; the vertex list must be sorted ascending and
// duplicate-free (the same contract as Collection.Append).
func (c *CodedCollection) appendSet(set []graph.Vertex) {
	codes := c.codeBuf[:0]
	if c.relab == nil {
		for _, v := range set {
			codes = append(codes, uint32(v))
		}
	} else {
		for _, v := range set {
			codes = append(codes, c.relab.codeOf(v))
		}
		slices.Sort(codes)
	}
	c.codeBuf = codes

	buf := c.encBuf[:0]
	prev := uint32(0)
	for i, cd := range codes {
		delta := uint64(cd)
		if i > 0 {
			delta = uint64(cd - prev - 1) // gaps are >= 1 in a strict ascent
		}
		buf = binary.AppendUvarint(buf, delta)
		prev = cd
	}
	c.encBuf = buf

	if c.count&(codedBlockSamples-1) == 0 {
		c.blockOffs = append(c.blockOffs, int64(len(c.data)))
	}
	c.data = binary.AppendUvarint(c.data, uint64(len(buf)))
	c.data = append(c.data, buf...)
	c.count++
	c.total += int64(len(set))
}

// payload locates the delta payload of sample i: jump to its block's
// offset, then skip the length-prefixed samples before it in the block.
func (c *CodedCollection) payload(i int) []byte {
	d := c.Run()
	return d.payload(i)
}

// uvarintTail finishes the uvarint whose first byte b0 (>= 0x80) sits at
// p[pos-1], returning the value and the position past it. Decode loops
// test the one-byte form inline — nearly every gap under the frequency
// relabeling — and come here for the rest: two and three bytes (codes
// below 2^21) unrolled, longer ones left to encoding/binary.
func uvarintTail(p []byte, pos int, b0 uint32) (uint32, int) {
	b0 &= 0x7f
	b1 := uint32(p[pos])
	if b1 < 0x80 {
		return b0 | b1<<7, pos + 1
	}
	if b2 := uint32(p[pos+1]); b2 < 0x80 {
		return b0 | (b1&0x7f)<<7 | b2<<14, pos + 2
	}
	x, k := binary.Uvarint(p[pos-1:])
	return uint32(x), pos - 1 + k
}

// RunDecoder decodes samples by id, remembering where the last one ended:
// a run of ascending ids inside one 64-sample block — the matched list of
// a purge comes ascending off the index — skips only the length prefixes
// between consecutive ids, where a cold lookup re-walks up to 63 from the
// block's start. Any id order decodes correctly; only the cost differs.
// A decoder is a cursor over an immutable store, private to one goroutine.
type RunDecoder struct {
	c      *CodedCollection
	blk, s int // the cursor sits on the length prefix of sample s of block blk,
	pos    int // at byte pos (the zero cursor is the start of block 0)
}

// Run returns a decoder positioned at the store's first sample.
func (c *CodedCollection) Run() RunDecoder { return RunDecoder{c: c} }

// payload returns sample i's delta payload and moves the cursor past it.
func (d *RunDecoder) payload(i int) []byte {
	data := d.c.data
	blk, s := i>>codedBlockShift, i&(codedBlockSamples-1)
	if blk != d.blk || s < d.s {
		d.blk, d.s, d.pos = blk, 0, int(d.c.blockOffs[blk])
	}
	for {
		l, start := uint32(data[d.pos]), d.pos+1
		if l >= 0x80 {
			l, start = uvarintTail(data, start, l)
		}
		d.s, d.pos = d.s+1, start+int(l)
		if d.s > s {
			return data[start:d.pos]
		}
	}
}

// Append decodes sample i and appends its members, in ascending code
// order, to buf (which is returned). With the identity labeling that is
// ascending original-id order; under a frequency relabeling it is not —
// the selection paths that consume this are order-insensitive (counter
// decrements commute), which is why decode never needs to sort.
func (d *RunDecoder) Append(i int, buf []graph.Vertex) []graph.Vertex {
	p, relab := d.payload(i), d.c.relab
	cur := ^uint32(0) // so the first code, stored verbatim, is cur + 1 + gap too
	for pos := 0; pos < len(p); {
		gap := uint32(p[pos])
		if pos++; gap >= 0x80 {
			gap, pos = uvarintTail(p, pos, gap)
		}
		cur += 1 + gap
		if relab == nil {
			buf = append(buf, graph.Vertex(cur))
		} else {
			buf = append(buf, relab.origOf(cur))
		}
	}
	return buf
}

// Accum decodes sample i and adds delta to counts at every member's
// original id — the fused decode+count the purge and counting paths run
// hot: one add and, under a relabeling, one table lookup per member.
func (d *RunDecoder) Accum(i int, counts []int32, delta int32) {
	p := d.payload(i)
	var orig []uint32
	if d.c.relab != nil {
		orig = d.c.relab.orig
	}
	cur := ^uint32(0)
	for pos := 0; pos < len(p); {
		gap := uint32(p[pos])
		if pos++; gap >= 0x80 {
			gap, pos = uvarintTail(p, pos, gap)
		}
		if cur += 1 + gap; orig != nil {
			counts[orig[cur]] += delta
		} else {
			counts[cur] += delta
		}
	}
}

// appendMembers is RunDecoder.Append for one sample looked up cold.
func (c *CodedCollection) appendMembers(i int, buf []graph.Vertex) []graph.Vertex {
	d := c.Run()
	return d.Append(i, buf)
}

// SampleSorted decodes sample i into buf (reused if capacious) and returns
// its members sorted ascending by original id — the canonical order
// Collection.Sample yields, regardless of the store's labeling. Used by
// transcoding and equivalence tests; hot paths use appendMembers.
func (c *CodedCollection) SampleSorted(i int, buf []graph.Vertex) []graph.Vertex {
	buf = c.appendMembers(i, buf[:0])
	if c.relab != nil {
		slices.Sort(buf)
	}
	return buf
}

// visitRange streams sample i and invokes visit for every member whose
// original id falls in [vl, vh) — the store access the inverted-index
// build needs. With the identity labeling members stream ascending with
// early exit past vh; under a relabeling every member is decoded and
// filtered, in code order. Both are valid for buildIndex: each vertex
// appears at most once per sample, so per-vertex sample lists stay sorted
// by the ascending sample loop alone.
func (c *CodedCollection) visitRange(i int, vl, vh graph.Vertex, visit func(graph.Vertex)) {
	p := c.payload(i)
	prev := uint32(0)
	first := true
	for pos := 0; pos < len(p); {
		delta, k := binary.Uvarint(p[pos:])
		pos += k
		cur := uint32(delta)
		if !first {
			cur = prev + 1 + uint32(delta)
		}
		prev = cur
		first = false
		if c.relab == nil {
			if cur >= uint32(vh) {
				return
			}
			if cur >= uint32(vl) {
				visit(graph.Vertex(cur))
			}
			continue
		}
		if v := c.relab.origOf(cur); v >= vl && v < vh {
			visit(v)
		}
	}
}

// CountAll accumulates every sample's membership into counter, skipping
// samples marked in covered (may be nil to count everything) — the coded
// analog of Collection.CountRange over the full vertex range.
func (c *CodedCollection) CountAll(counter []int32, covered Bitset) {
	d := c.Run()
	for i := 0; i < c.count; i++ {
		if covered != nil && covered.Get(i) {
			continue
		}
		d.Accum(i, counter, 1)
	}
}

// Recode re-expresses every sample under a different labeling (nil for
// identity), returning a new store over the same samples. This is the
// snapshot cross-loading path: a snapshot written with one labeling is
// transcoded once at load time into the store kind the server runs.
func (c *CodedCollection) Recode(relab *Relabeling) *CodedCollection {
	out := newCodedCollection(c.n, relab)
	out.data = make([]byte, 0, len(c.data))
	var buf []graph.Vertex
	for i := 0; i < c.count; i++ {
		buf = c.SampleSorted(i, buf)
		out.appendSet(buf)
	}
	out.data = slices.Clip(out.data)
	return out
}

// Bytes returns the coded footprint: payload bytes, block offsets, and the
// relabel table the store cannot be decoded without.
func (c *CodedCollection) Bytes() int64 {
	return int64(len(c.data)) + int64(len(c.blockOffs))*8 + c.relab.Bytes()
}

// FlatBytes returns what the same samples cost in the flat Collection
// layout (4 bytes per entry + 8 bytes per sample offset) — the numerator
// of the compression ratio reported beside rrr/store-bytes.
func (c *CodedCollection) FlatBytes() int64 {
	return c.total*4 + int64(c.count+1)*8
}

// decodePayloadChecked walks one sample payload, validating it: every
// varint must terminate inside the payload, codes must ascend strictly and
// stay below n, and no trailing bytes may remain ambiguous (the payload
// length delimits exactly). Returns the cardinality. This is the
// validation core the snapshot reader runs over untrusted bytes, and the
// FuzzDecodeSample target.
func decodePayloadChecked(p []byte, n int) (int, error) {
	prev := uint32(0)
	first := true
	card := 0
	for pos := 0; pos < len(p); {
		delta, k := binary.Uvarint(p[pos:])
		if k <= 0 {
			return 0, fmt.Errorf("truncated or oversized varint at payload byte %d", pos)
		}
		pos += k
		// Reject the delta before summing so the running code can never
		// overflow uint64 and wrap back under n.
		if delta >= uint64(n) {
			return 0, fmt.Errorf("delta %d out of range [0, %d)", delta, n)
		}
		cur64 := delta
		if !first {
			cur64 = uint64(prev) + 1 + delta
		}
		if cur64 >= uint64(n) {
			return 0, fmt.Errorf("code %d out of range [0, %d)", cur64, n)
		}
		prev = uint32(cur64)
		first = false
		card++
	}
	return card, nil
}

// validateCoded structurally checks a coded store parsed from untrusted
// bytes: block offsets must agree with the walk of length-prefixed
// payloads, every payload must decode cleanly, and the declared count and
// total must match what the walk finds.
func validateCoded(n int, count int, total int64, blockOffs []int64, data []byte) error {
	wantBlocks := (count + codedBlockSamples - 1) >> codedBlockShift
	if len(blockOffs) != wantBlocks {
		return fmt.Errorf("store has %d block offsets, want %d for %d samples", len(blockOffs), wantBlocks, count)
	}
	pos := int64(0)
	var walkedTotal int64
	for i := 0; i < count; i++ {
		if i&(codedBlockSamples-1) == 0 {
			if blockOffs[i>>codedBlockShift] != pos {
				return fmt.Errorf("block %d offset %d disagrees with walk position %d", i>>codedBlockShift, blockOffs[i>>codedBlockShift], pos)
			}
		}
		l, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return fmt.Errorf("store sample %d: truncated length prefix", i)
		}
		pos += int64(k)
		if l > uint64(int64(len(data))-pos) {
			return fmt.Errorf("store sample %d: payload length %d exceeds remaining data", i, l)
		}
		card, err := decodePayloadChecked(data[pos:pos+int64(l)], n)
		if err != nil {
			return fmt.Errorf("store sample %d: %v", i, err)
		}
		walkedTotal += int64(card)
		pos += int64(l)
	}
	if pos != int64(len(data)) {
		return fmt.Errorf("store data has %d trailing bytes past the last sample", int64(len(data))-pos)
	}
	if walkedTotal != total {
		return fmt.Errorf("store declares %d total entries, samples hold %d", total, walkedTotal)
	}
	return nil
}
