package rrr

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"influmax/internal/graph"
	"influmax/internal/rng"
)

// FuzzDecodeSample hammers the per-sample payload validator with
// adversarial bytes: it must never panic, and whatever it accepts must
// decode through the real appendMembers path to exactly the cardinality it
// reported, with strictly ascending codes below n. The seed corpus covers
// honest payloads under both labelings, boundary codes, truncated varints
// and oversized deltas.
func FuzzDecodeSample(f *testing.F) {
	encode := func(set []graph.Vertex) []byte {
		c := newCodedCollection(min(1<<31, math.MaxInt), nil) // 2^31, or MaxInt32 on a 32-bit int
		c.appendSet(set)
		return slices.Clone(c.payload(0))
	}
	f.Add([]byte{}, uint32(100))
	f.Add(encode([]graph.Vertex{0}), uint32(1))
	f.Add(encode([]graph.Vertex{0, 1, 2, 3}), uint32(4))
	f.Add(encode([]graph.Vertex{5, 90, 99}), uint32(100))
	f.Add(encode([]graph.Vertex{5, 1 << 20, 1<<31 - 1}), uint32(1<<31-1))
	r := rng.New(rng.NewLCG(11))
	f.Add(encode(randomSortedSet(r, 300, 0.3)), uint32(300))
	f.Add([]byte{0x80}, uint32(50))                               // truncated varint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, uint32(50))       // delta past n
	f.Add(binary.AppendUvarint(nil, uint64(1)<<63), uint32(1000)) // huge delta
	// One gap of every varint width the decoder unrolls (1, 2, 3 bytes) and
	// one it leaves to encoding/binary (4).
	f.Add(encode([]graph.Vertex{7, 8, 300, 20000, 20001, 3 << 20}), uint32(1<<22))

	f.Fuzz(func(t *testing.T, p []byte, n uint32) {
		if n == 0 {
			n = 1
		}
		card, err := decodePayloadChecked(p, int(n))
		if err != nil {
			return
		}
		// Accepted: the real decoder must agree. Wrap the payload in a
		// single-sample store and decode it.
		c := &CodedCollection{
			n:         int(n),
			count:     1,
			total:     int64(card),
			blockOffs: []int64{0},
			data:      append(binary.AppendUvarint(nil, uint64(len(p))), p...),
		}
		got := c.appendMembers(0, nil)
		if len(got) != card {
			t.Fatalf("validator counted %d members, decoder produced %d", card, len(got))
		}
		for i, v := range got {
			if uint32(v) >= n {
				t.Fatalf("member %d = %d past universe %d", i, v, n)
			}
			if i > 0 && v <= got[i-1] {
				t.Fatalf("members not strictly ascending at %d: %v", i, got)
			}
		}
	})
}
