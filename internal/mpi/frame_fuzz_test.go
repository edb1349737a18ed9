package mpi

import (
	"bytes"
	"testing"
)

// FuzzReadFrame hammers the TCP transport's length-framed decoder with
// adversarial byte streams: it must never panic and never allocate beyond
// the frame bound, and whatever it accepts must re-encode to exactly the
// bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, 3, []byte("hello")))
	f.Add(appendFrame(nil, tagBcast, nil))
	f.Add(appendFrame(nil, -9, bytes.Repeat([]byte{0xab}, 64))[:20]) // truncated payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // max-positive length claim
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxFrame = 1 << 16
		tag, payload, err := readFrame(bytes.NewReader(data), maxFrame)
		if err != nil {
			return
		}
		if int64(len(payload)) > maxFrame {
			t.Fatalf("accepted %d-byte payload past the %d bound", len(payload), maxFrame)
		}
		// Accepted frames must round-trip: re-encoding reproduces the exact
		// bytes the reader consumed.
		enc := appendFrame(nil, tag, payload)
		if len(enc) > len(data) || !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("round trip mismatch: decoded (tag %d, %d bytes) from %x", tag, len(payload), data)
		}
	})
}
