package mpi

import (
	"encoding/binary"
	"fmt"
)

// Collectives use the negative tag space so they never collide with user
// tags, which must be non-negative. The values are fixed: the fault
// injector's coins hash the tag, so renumbering a collective would change
// every injected fault schedule.
const (
	tagBcast       = -2
	tagReduce      = -3
	tagGatherBytes = -7
)

// AllReduce sums buf elementwise across all ranks and leaves the identical
// result in buf on every rank: a reduce up a binomial tree to rank 0, then
// a broadcast back down it, O(log p) steps each way. Elements travel as 8
// little-endian bytes. All ranks must pass slices of equal length; a peer
// payload of another length fails the call with an error naming the peer.
func AllReduce(c Comm, buf []int64) error {
	if err := reduce(c, buf); err != nil {
		return err
	}
	return broadcast(c, buf)
}

// reduce walks the binomial tree toward rank 0. At step s a rank whose low
// bits equal s sends its partial sum to rank-s and is done; a rank whose
// low bits are zero adds in rank+s's partial sum.
func reduce(c Comm, buf []int64) error {
	rank, p := c.Rank(), c.Size()
	for step := 1; step < p; step <<= 1 {
		switch {
		case rank&(2*step-1) == step:
			return c.Send(rank-step, tagReduce, encode(buf))
		case rank&(2*step-1) == 0 && rank+step < p:
			payload, err := c.Recv(rank+step, tagReduce)
			if err != nil {
				return err
			}
			if err := checkLength(rank+step, payload, buf); err != nil {
				return err
			}
			for i := range buf {
				buf[i] += int64(binary.LittleEndian.Uint64(payload[8*i:]))
			}
		}
	}
	return nil
}

// broadcast copies rank 0's buf down the same tree, largest step first:
// each rank receives from its parent, then forwards the payload unchanged
// to its children.
func broadcast(c Comm, buf []int64) error {
	rank, p := c.Rank(), c.Size()
	top := 1
	for top < p {
		top <<= 1
	}
	var payload []byte
	if rank == 0 && p > 1 {
		payload = encode(buf)
	}
	for step := top >> 1; step >= 1; step >>= 1 {
		switch {
		case rank&(2*step-1) == 0 && rank+step < p:
			if err := c.Send(rank+step, tagBcast, payload); err != nil {
				return err
			}
		case rank&(2*step-1) == step:
			var err error
			if payload, err = c.Recv(rank-step, tagBcast); err != nil {
				return err
			}
			if err := checkLength(rank-step, payload, buf); err != nil {
				return err
			}
			for i := range buf {
				buf[i] = int64(binary.LittleEndian.Uint64(payload[8*i:]))
			}
		}
	}
	return nil
}

// encode serializes buf little-endian, 8 bytes per element.
func encode(buf []int64) []byte {
	out := make([]byte, 8*len(buf))
	for i, x := range buf {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// checkLength rejects a peer's AllReduce payload that does not hold
// exactly len(buf) elements — a rank run with different inputs, say.
func checkLength(peer int, payload []byte, buf []int64) error {
	if len(payload) != 8*len(buf) {
		return fmt.Errorf("mpi: AllReduce payload from rank %d is %d bytes, want %d (%d elements)",
			peer, len(payload), 8*len(buf), len(buf))
	}
	return nil
}

// GatherBytes collects each rank's opaque payload at rank 0, indexed by
// rank; the other ranks receive nil. It carries serialized structures (the
// per-rank RunReport sub-reports of internal/metrics), not numeric vectors.
func GatherBytes(c Comm, payload []byte) ([][]byte, error) {
	if c.Rank() != 0 {
		return nil, c.Send(0, tagGatherBytes, payload)
	}
	out := make([][]byte, c.Size())
	out[0] = payload
	for r := 1; r < c.Size(); r++ {
		p, err := c.Recv(r, tagGatherBytes)
		if err != nil {
			return nil, err
		}
		out[r] = p
	}
	return out, nil
}
