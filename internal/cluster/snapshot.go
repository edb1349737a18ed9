package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"os"

	"influmax/internal/graph"
	"influmax/internal/rrr"
)

// Shard snapshots wrap the standard v3 sketch snapshot (rrr.WriteSnapshot)
// in a 24-byte shard header carrying what SnapshotMeta cannot: the shard's
// place in the fleet partition and its mutation epoch. The same bytes
// travel over GET /v1/snapshot for peer bootstrap.

// shardMagic opens a shard snapshot; the trailing byte is the header
// version. v2 appends the per-sample root column (uint32 count + count
// little-endian uint32 roots) between the header and the sketch snapshot,
// powering the audience-filtered query ops after a warm restart.
var shardMagic = [8]byte{'I', 'M', 'X', 'S', 'H', 'R', 'D', 2}

// shardMagicV1 is the pre-roots header, refused on read: rebuild the shard.
var shardMagicV1 = [8]byte{'I', 'M', 'X', 'S', 'H', 'R', 'D', 1}

// WriteShardSnapshot writes sh (header v2 + root column + v3 snapshot) to
// w.
func WriteShardSnapshot(w io.Writer, sh *Shard) error {
	var hdr [24]byte
	copy(hdr[:8], shardMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], uint32(sh.ShardIdx))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(sh.ShardCount))
	binary.LittleEndian.PutUint64(hdr[16:], sh.Epoch)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	roots := make([]byte, 4+4*len(sh.Roots))
	binary.LittleEndian.PutUint32(roots, uint32(len(sh.Roots)))
	for i, r := range sh.Roots {
		binary.LittleEndian.PutUint32(roots[4+4*i:], uint32(r))
	}
	if _, err := w.Write(roots); err != nil {
		return err
	}
	return rrr.WriteSnapshot(w, sh.Meta, sh.Col, sh.Idx, nil)
}

// ReadShardSnapshot reads a shard snapshot from r. maxBytes bounds the
// inner snapshot's payload claims (<= 0 uses rrr.DefaultMaxSnapshotBytes);
// p is the worker count for an index rebuild if the snapshot carries none.
func ReadShardSnapshot(r io.Reader, maxBytes int64, p int) (*Shard, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("cluster: reading shard header: %w", err)
	}
	switch [8]byte(hdr[:8]) {
	case shardMagic:
	case shardMagicV1:
		return nil, fmt.Errorf("cluster: shard snapshot header v1 (no root column) is no longer read; rebuild the shard and save a fresh snapshot")
	default:
		return nil, fmt.Errorf("cluster: not a shard snapshot (bad magic)")
	}
	shardIdx := int(binary.LittleEndian.Uint32(hdr[8:]))
	shardCount := int(binary.LittleEndian.Uint32(hdr[12:]))
	epoch := binary.LittleEndian.Uint64(hdr[16:])
	budget := maxBytes
	if budget <= 0 {
		budget = rrr.DefaultMaxSnapshotBytes
	}
	var cntBuf [4]byte
	if _, err := io.ReadFull(r, cntBuf[:]); err != nil {
		return nil, fmt.Errorf("cluster: reading shard root column: %w", err)
	}
	cnt := int64(binary.LittleEndian.Uint32(cntBuf[:]))
	if 4*cnt > budget {
		return nil, fmt.Errorf("cluster: shard root column claims %d samples, past the %d-byte budget", cnt, budget)
	}
	raw := make([]byte, 4*cnt)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("cluster: reading shard root column: %w", err)
	}
	roots := make([]graph.Vertex, cnt)
	for i := range roots {
		roots[i] = graph.Vertex(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	meta, col, idx, deltas, err := rrr.ReadSnapshot(r, maxBytes)
	if err != nil {
		return nil, err
	}
	if len(deltas) > 0 {
		return nil, fmt.Errorf("cluster: shard snapshot carries a delta log; shards serve static sketches")
	}
	if len(roots) != col.Count() {
		return nil, fmt.Errorf("cluster: shard root column has %d entries for %d samples", len(roots), col.Count())
	}
	n := col.NumVertices()
	for _, rt := range roots {
		if int(rt) >= n {
			return nil, fmt.Errorf("cluster: shard root %d out of range (n = %d)", rt, n)
		}
	}
	sh, err := NewShard(meta, col, idx, shardIdx, shardCount, epoch, p)
	if err != nil {
		return nil, err
	}
	sh.Roots = roots
	return sh, nil
}

// SaveShardSnapshotFile persists sh at path atomically (temp + rename).
func SaveShardSnapshotFile(path string, sh *Shard) error {
	return rrr.SaveAtomic(path, func(w io.Writer) error { return WriteShardSnapshot(w, sh) })
}

// LoadShardSnapshotFile reads a shard snapshot from path.
func LoadShardSnapshotFile(path string, maxBytes int64, p int) (*Shard, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadShardSnapshot(bufio.NewReaderSize(f, 64<<10), maxBytes, p)
}

// FetchShardSnapshot bootstraps a shard from a peer replica: it streams
// GET <base>/v1/snapshot (chunked by net/http) through the bounded-alloc
// snapshot reader. client may be nil for http.DefaultClient; set a
// Timeout on it to bound the transfer.
func FetchShardSnapshot(base string, client *http.Client, maxBytes int64, p int) (*Shard, error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(base + "/v1/snapshot")
	if err != nil {
		return nil, fmt.Errorf("cluster: fetching shard snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("cluster: peer %s answered %s: %s", base, resp.Status, body)
	}
	return ReadShardSnapshot(bufio.NewReaderSize(resp.Body, 64<<10), maxBytes, p)
}
