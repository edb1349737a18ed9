package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		tag int
		n   int
	}{
		{0, 0},
		{5, 1},
		{tagBcast, 0},         // collectives use negative tags
		{tagGatherBytes, 100}, // negative tag with payload
		{7, frameAllocChunk - 1},
		{8, frameAllocChunk},
		{9, frameAllocChunk + 1},
		{10, 3*frameAllocChunk + 17},
	} {
		payload := make([]byte, tc.n)
		for i := range payload {
			payload[i] = byte(i * 13)
		}
		buf := appendFrame(nil, tc.tag, payload)
		if len(buf) != frameHeaderLen+tc.n {
			t.Fatalf("tag %d n %d: frame length %d", tc.tag, tc.n, len(buf))
		}
		tag, got, err := readFrame(bytes.NewReader(buf), DefaultMaxFrame)
		if err != nil {
			t.Fatalf("tag %d n %d: %v", tc.tag, tc.n, err)
		}
		if tag != tc.tag {
			t.Fatalf("tag %d decoded as %d", tc.tag, tag)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("tag %d n %d: payload corrupted", tc.tag, tc.n)
		}
	}
}

func TestFrameRejectsOversizeLength(t *testing.T) {
	buf := appendFrame(nil, 3, make([]byte, 100))
	_, _, err := readFrame(bytes.NewReader(buf), 99)
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("oversize frame: %v, want FrameError", err)
	}
	if fe.Tag != 3 || fe.Length != 100 || fe.Max != 99 {
		t.Fatalf("FrameError fields: %+v", fe)
	}
}

func TestFrameRejectsNegativeLength(t *testing.T) {
	var buf [frameHeaderLen]byte
	binary.LittleEndian.PutUint64(buf[8:], ^uint64(0)) // length -1
	_, _, err := readFrame(bytes.NewReader(buf[:]), DefaultMaxFrame)
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("negative length: %v, want FrameError", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	full := appendFrame(nil, 1, []byte("hello world"))
	for _, cut := range []int{0, 1, frameHeaderLen - 1, frameHeaderLen, frameHeaderLen + 4} {
		_, _, err := readFrame(bytes.NewReader(full[:cut]), DefaultMaxFrame)
		if err == nil {
			t.Fatalf("truncated at %d accepted", cut)
		}
		if cut > 0 && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("truncated at %d: %v", cut, err)
		}
	}
}

func TestFrameBoundedAllocation(t *testing.T) {
	// A header claiming a near-max length backed by almost no bytes must
	// fail after at most one chunk of allocation, not attempt the full
	// claimed size up front. If the reader trusted the header this test
	// would try to allocate a terabyte and die.
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[8:], 1<<40)
	in := append(hdr[:], make([]byte, 100)...)
	if _, _, err := readFrame(bytes.NewReader(in), 1<<41); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated terabyte claim: %v, want ErrUnexpectedEOF", err)
	}
}
