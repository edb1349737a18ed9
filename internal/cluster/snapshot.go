package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"os"

	"influmax/internal/rrr"
)

// Shard snapshots wrap the standard v3 sketch snapshot (rrr.WriteSnapshot)
// in a 32-byte shard header carrying what SnapshotMeta cannot: the shard's
// place in the fleet partition, its mutation epoch and the global id of
// its first sample, from which newShard re-derives the root column. The
// same bytes travel over GET /v1/snapshot for peer bootstrap.

// shardMagic opens a shard snapshot; the trailing byte is the header
// version.
var shardMagic = [8]byte{'I', 'M', 'X', 'S', 'H', 'R', 'D', 3}

// Headers v1 (no roots) and v2 (a root column over the interleaved ids of
// the former rank slices) are refused on read: mixed into a fleet of
// id-range shards, a v2 shard would count some samples twice and drop
// others.
var (
	shardMagicV1 = [8]byte{'I', 'M', 'X', 'S', 'H', 'R', 'D', 1}
	shardMagicV2 = [8]byte{'I', 'M', 'X', 'S', 'H', 'R', 'D', 2}
)

// writeShardSnapshot writes sh (header v3 + v3 sketch snapshot) to w.
func writeShardSnapshot(w io.Writer, sh *Shard) error {
	var hdr [32]byte
	copy(hdr[:8], shardMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], uint32(sh.ShardIdx))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(sh.ShardCount))
	binary.LittleEndian.PutUint64(hdr[16:], sh.Epoch)
	binary.LittleEndian.PutUint64(hdr[24:], sh.First)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	return rrr.WriteSnapshot(w, sh.Meta, sh.Col, sh.Idx, nil)
}

// readShardSnapshot reads a shard snapshot from r. maxBytes bounds the
// inner snapshot's payload claims (<= 0 uses rrr.DefaultMaxSnapshotBytes);
// p is the worker count for the root column and for an index rebuild if
// the snapshot carries none.
func readShardSnapshot(r io.Reader, maxBytes int64, p int) (*Shard, error) {
	var hdr [32]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("cluster: reading shard header: %w", err)
	}
	switch magic := [8]byte(hdr[:8]); magic {
	case shardMagic:
	case shardMagicV1, shardMagicV2:
		return nil, fmt.Errorf("cluster: shard snapshot header v%d is no longer read; rebuild the shard and save a fresh snapshot", magic[7])
	default:
		return nil, fmt.Errorf("cluster: not a shard snapshot (bad magic)")
	}
	shardIdx := int(binary.LittleEndian.Uint32(hdr[8:]))
	shardCount := int(binary.LittleEndian.Uint32(hdr[12:]))
	epoch := binary.LittleEndian.Uint64(hdr[16:])
	first := binary.LittleEndian.Uint64(hdr[24:])
	meta, col, idx, deltas, err := rrr.ReadSnapshot(r, maxBytes)
	if err != nil {
		return nil, err
	}
	if len(deltas) > 0 {
		return nil, fmt.Errorf("cluster: shard snapshot carries a delta log; shards serve static sketches")
	}
	return newShard(meta, col, idx, shardIdx, shardCount, first, epoch, p)
}

// SaveShardSnapshotFile persists sh at path atomically (temp + rename).
func SaveShardSnapshotFile(path string, sh *Shard) error {
	return rrr.SaveAtomic(path, func(w io.Writer) error { return writeShardSnapshot(w, sh) })
}

// LoadShardSnapshotFile reads a shard snapshot from path.
func LoadShardSnapshotFile(path string, maxBytes int64, p int) (*Shard, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readShardSnapshot(bufio.NewReaderSize(f, 64<<10), maxBytes, p)
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
	return readShardSnapshot(bufio.NewReaderSize(resp.Body, 64<<10), maxBytes, p)
}
