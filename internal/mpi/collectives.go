package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Collectives use the high tag space so they never collide with user tags,
// which must be non-negative.
const (
	tagBarrier = -1 - iota
	tagBcast
	tagReduce
	tagGather
	tagAllGather
	_ // unused: a blank keeps tagGatherBytes at -7, and the fault coins hash tags
	tagGatherBytes
)

// Op is a reduction operator.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
	Min
)

// Number covers the element types the typed collectives support.
type Number interface {
	~int32 | ~int64 | ~uint32 | ~uint64 | ~float64
}

// combine applies op elementwise: dst[i] = op(dst[i], src[i]).
func combine[T Number](dst, src []T, op Op) {
	switch op {
	case Sum:
		for i := range dst {
			dst[i] += src[i]
		}
	case Max:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	case Min:
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	default:
		panic("mpi: unknown reduction op")
	}
}

// encode serializes a numeric slice little-endian, 8 bytes per element.
func encode[T Number](xs []T) []byte {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], toBits(x))
	}
	return buf
}

// toBits converts a Number to its uint64 wire pattern. Signed values are
// sign-extended so fromBits truncation round-trips them. Only the five
// base element types are supported (the constraint's ~ forms exist for
// ergonomic call sites, not named-type instantiation).
func toBits[T Number](x T) uint64 {
	switch v := any(x).(type) {
	case int32:
		return uint64(v)
	case int64:
		return uint64(v)
	case uint32:
		return uint64(v)
	case uint64:
		return v
	case float64:
		return math.Float64bits(v)
	}
	panic("mpi: unsupported numeric type")
}

// fromBits is the inverse of toBits for a given instantiation.
func fromBits[T Number](u uint64) T {
	var zero T
	switch any(zero).(type) {
	case int32:
		return T(any(int32(u)).(T))
	case int64:
		return T(any(int64(u)).(T))
	case uint32:
		return T(any(uint32(u)).(T))
	case uint64:
		return T(any(u).(T))
	case float64:
		return T(any(math.Float64frombits(u)).(T))
	}
	panic("mpi: unsupported numeric type")
}

// decode deserializes into a fresh slice of n elements.
func decode[T Number](buf []byte) []T {
	xs := make([]T, len(buf)/8)
	for i := range xs {
		xs[i] = fromBits[T](binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return xs
}

// Barrier blocks until every rank has entered it.
func Barrier(c Comm) error {
	// An empty reduce-then-broadcast through rank 0.
	if err := reduceBytes(c, tagBarrier, nil, nil); err != nil {
		return err
	}
	_, err := broadcastBytes(c, tagBarrier, nil)
	return err
}

// reduceBytes walks the binomial reduction tree toward rank 0. At each
// merge step it calls merge(payload) to fold a child's payload into the
// local state; the caller serializes its state with ser (called lazily
// when this rank must forward). A nil ser/merge performs a pure
// synchronization walk.
func reduceBytes(c Comm, tag int, ser func() []byte, merge func([]byte)) error {
	rank, p := c.Rank(), c.Size()
	for step := 1; step < p; step <<= 1 {
		if rank&(2*step-1) == step {
			var payload []byte
			if ser != nil {
				payload = ser()
			}
			return c.Send(rank-step, tag, payload)
		}
		if rank&(2*step-1) == 0 && rank+step < p {
			payload, err := c.Recv(rank+step, tag)
			if err != nil {
				return err
			}
			if merge != nil {
				merge(payload)
			}
		}
	}
	return nil
}

// broadcastBytes distributes rank 0's payload down the binomial tree and
// returns each rank's copy.
func broadcastBytes(c Comm, tag int, payload []byte) ([]byte, error) {
	rank, p := c.Rank(), c.Size()
	// Largest step used by the tree.
	top := 1
	for top < p {
		top <<= 1
	}
	for step := top >> 1; step >= 1; step >>= 1 {
		switch {
		case rank&(2*step-1) == 0 && rank+step < p:
			if err := c.Send(rank+step, tag, payload); err != nil {
				return nil, err
			}
		case rank&(2*step-1) == step:
			var err error
			payload, err = c.Recv(rank-step, tag)
			if err != nil {
				return nil, err
			}
		}
	}
	return payload, nil
}

// Broadcast distributes root's data to all ranks and returns each rank's
// copy. Only root's data argument is consulted.
func Broadcast[T Number](c Comm, root int, data []T) ([]T, error) {
	if err := checkPeer(c, root); err != nil {
		return nil, err
	}
	// Rotate so the tree is rooted at rank 0 without loss of generality:
	// rank r acts as virtual rank (r - root + p) % p.
	v := &rotatedComm{Comm: c, root: root}
	var payload []byte
	if c.Rank() == root {
		payload = encode(data)
	}
	out, err := broadcastBytes(v, tagBcast, payload)
	if err != nil {
		return nil, err
	}
	return decode[T](out), nil
}

// AllReduce reduces buf elementwise across all ranks with op and leaves
// the identical result in buf on every rank. All ranks must pass slices of
// equal length.
func AllReduce[T Number](c Comm, buf []T, op Op) error {
	acc := buf
	err := reduceBytes(c, tagReduce,
		func() []byte { return encode(acc) },
		func(payload []byte) {
			other := decode[T](payload)
			if len(other) != len(acc) {
				panic(fmt.Sprintf("mpi: AllReduce length mismatch: %d vs %d", len(other), len(acc)))
			}
			combine(acc, other, op)
		})
	if err != nil {
		return err
	}
	var payload []byte
	if c.Rank() == 0 {
		payload = encode(acc)
	}
	out, err := broadcastBytes(c, tagBcast, payload)
	if err != nil {
		return err
	}
	copy(buf, decode[T](out))
	return nil
}

// Reduce folds data from all ranks onto root; non-root ranks receive nil.
func Reduce[T Number](c Comm, root int, data []T, op Op) ([]T, error) {
	if err := checkPeer(c, root); err != nil {
		return nil, err
	}
	v := &rotatedComm{Comm: c, root: root}
	acc := append([]T(nil), data...)
	err := reduceBytes(v, tagReduce,
		func() []byte { return encode(acc) },
		func(payload []byte) { combine(acc, decode[T](payload), op) })
	if err != nil {
		return nil, err
	}
	if c.Rank() == root {
		return acc, nil
	}
	return nil, nil
}

// Gather collects each rank's data at root, indexed by rank; non-root
// ranks receive nil. Lengths may differ across ranks.
func Gather[T Number](c Comm, root int, data []T) ([][]T, error) {
	if err := checkPeer(c, root); err != nil {
		return nil, err
	}
	if c.Rank() != root {
		return nil, c.Send(root, tagGather, encode(data))
	}
	out := make([][]T, c.Size())
	out[root] = append([]T(nil), data...)
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		payload, err := c.Recv(r, tagGather)
		if err != nil {
			return nil, err
		}
		out[r] = decode[T](payload)
	}
	return out, nil
}

// GatherBytes collects each rank's opaque payload at root, indexed by
// rank; non-root ranks receive nil. It is the untyped sibling of Gather,
// used where ranks exchange serialized structures (the per-rank RunReport
// sub-reports of internal/metrics) rather than numeric vectors.
func GatherBytes(c Comm, root int, payload []byte) ([][]byte, error) {
	if err := checkPeer(c, root); err != nil {
		return nil, err
	}
	if c.Rank() != root {
		return nil, c.Send(root, tagGatherBytes, payload)
	}
	out := make([][]byte, c.Size())
	out[root] = payload
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		p, err := c.Recv(r, tagGatherBytes)
		if err != nil {
			return nil, err
		}
		out[r] = p
	}
	return out, nil
}

// AllGather collects each rank's data on every rank, indexed by rank.
func AllGather[T Number](c Comm, data []T) ([][]T, error) {
	parts, err := Gather(c, 0, data)
	if err != nil {
		return nil, err
	}
	// Root flattens with a length prefix per rank, then broadcasts.
	var lengths []int64
	var flat []T
	if c.Rank() == 0 {
		lengths = make([]int64, len(parts))
		for r, p := range parts {
			lengths[r] = int64(len(p))
			flat = append(flat, p...)
		}
	}
	lengths, err = Broadcast(c, 0, lengths)
	if err != nil {
		return nil, err
	}
	flat, err = Broadcast(c, 0, flat)
	if err != nil {
		return nil, err
	}
	out := make([][]T, c.Size())
	off := int64(0)
	for r := range out {
		out[r] = flat[off : off+lengths[r]]
		off += lengths[r]
	}
	return out, nil
}

// AllReduceRing is the bandwidth-optimal ring variant of AllReduce
// (reduce-scatter followed by all-gather, 2(p-1) steps moving ~2|buf|/p
// per step). Latency is O(p) versus the binomial tree's O(log p): better
// for large buffers on few ranks, worse for the small k-round counter
// exchanges that dominate IMMdist — the trade-off quantified by
// BenchmarkAblationAllReduce.
func AllReduceRing[T Number](c Comm, buf []T, op Op) error {
	p := c.Size()
	if p == 1 {
		return nil
	}
	rank := c.Rank()
	next := (rank + 1) % p
	prev := (rank - 1 + p) % p
	// Chunk boundaries.
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = len(buf) * i / p
	}
	chunk := func(i int) []T { i = ((i % p) + p) % p; return buf[bounds[i]:bounds[i+1]] }

	// Reduce-scatter: after p-1 steps, rank r holds the fully reduced
	// chunk (r+1).
	for step := 0; step < p-1; step++ {
		sendIdx := rank - step
		recvIdx := rank - step - 1
		if err := c.Send(next, tagReduce, encode(chunk(sendIdx))); err != nil {
			return err
		}
		payload, err := c.Recv(prev, tagReduce)
		if err != nil {
			return err
		}
		combine(chunk(recvIdx), decode[T](payload), op)
	}
	// All-gather: circulate the reduced chunks.
	for step := 0; step < p-1; step++ {
		sendIdx := rank + 1 - step
		recvIdx := rank - step
		if err := c.Send(next, tagAllGather, encode(chunk(sendIdx))); err != nil {
			return err
		}
		payload, err := c.Recv(prev, tagAllGather)
		if err != nil {
			return err
		}
		copy(chunk(recvIdx), decode[T](payload))
	}
	return nil
}

// rotatedComm relabels ranks so collectives can be rooted anywhere while
// the tree code assumes root 0.
type rotatedComm struct {
	Comm
	root int
}

func (r *rotatedComm) Rank() int {
	return (r.Comm.Rank() - r.root + r.Size()) % r.Size()
}

func (r *rotatedComm) Send(dst, tag int, payload []byte) error {
	return r.Comm.Send((dst+r.root)%r.Size(), tag, payload)
}

func (r *rotatedComm) Recv(src, tag int) ([]byte, error) {
	return r.Comm.Recv((src+r.root)%r.Size(), tag)
}
