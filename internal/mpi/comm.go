package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Comm is one rank's endpoint into a communicator of Size() ranks.
type Comm interface {
	// Rank returns this endpoint's rank in [0, Size()).
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Send delivers payload to rank dst with the given tag. The payload is
	// owned by the transport after the call returns.
	Send(dst, tag int, payload []byte) error
	// Recv blocks until a message with the given tag from rank src is
	// available and returns its payload. Messages between a (src, dst,
	// tag) triple are delivered in send order.
	Recv(src, tag int) ([]byte, error)
	// RecvDeadline is Recv with the wait bounded by timeout, overriding any
	// receive timeout the transport was configured with; expiry reports src
	// as failed via RankFailedError. A zero timeout sets no bound of its own.
	RecvDeadline(src, tag int, timeout time.Duration) ([]byte, error)
	// Close releases transport resources. Pending Recvs fail.
	Close() error
}

// ErrClosed is returned by operations on a closed communicator.
var ErrClosed = errors.New("mpi: communicator closed")

// ErrRecvTimeout is the cause carried by a RankFailedError when a peer
// produced no message within the configured receive timeout.
var ErrRecvTimeout = errors.New("mpi: receive timed out")

// ErrInjectedCrash is the cause carried by a RankFailedError when the
// fault injector crashed the rank on schedule.
var ErrInjectedCrash = errors.New("mpi: injected crash")

// RankFailedError reports that a peer rank crashed, became unreachable, or
// failed to produce an expected message within the configured timeout. It
// is returned from Send/Recv and propagates out of every collective built
// on them, so a dead peer surfaces as a typed error instead of a hang.
type RankFailedError struct {
	// Rank is the peer this endpoint holds responsible. Different
	// survivors of the same failure may blame different ranks (a rank that
	// errored out of a collective stops forwarding, so its own parents see
	// it as failed) — exactly as in MPI fault reporting.
	Rank int
	// Err is the underlying cause: a connection error, ErrRecvTimeout, or
	// ErrInjectedCrash.
	Err error
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed: %v", e.Rank, e.Err)
}

func (e *RankFailedError) Unwrap() error { return e.Err }

// pairKey identifies a receive queue.
type pairKey struct {
	src, tag int
}

// mailbox is the shared delivery structure: per-(source, tag) FIFO queues
// with blocking receive. Both transports deliver into a mailbox.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[pairKey][][]byte
	dead   map[int]error // src -> failure recorded by the transport
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{queues: make(map[pairKey][][]byte)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put enqueues a message.
func (m *mailbox) put(src, tag int, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	k := pairKey{src, tag}
	m.queues[k] = append(m.queues[k], payload)
	m.cond.Broadcast()
	return nil
}

// markDead records that no further messages from src will arrive and wakes
// every waiter. Messages already enqueued stay deliverable; a take on an
// empty queue from src then fails instead of blocking forever.
func (m *mailbox) markDead(src int, err error) {
	m.mu.Lock()
	if m.dead == nil {
		m.dead = make(map[int]error)
	}
	if m.dead[src] == nil {
		m.dead[src] = err
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}

// take blocks for the next message from (src, tag). A positive timeout
// bounds the wait; expiry reports src as failed.
func (m *mailbox) take(src, tag int, timeout time.Duration) ([]byte, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		timer := time.AfterFunc(timeout, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		defer timer.Stop()
	}
	k := pairKey{src, tag}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if q := m.queues[k]; len(q) > 0 {
			msg := q[0]
			if len(q) == 1 {
				delete(m.queues, k)
			} else {
				m.queues[k] = q[1:]
			}
			return msg, nil
		}
		if m.closed {
			return nil, ErrClosed
		}
		if err := m.dead[src]; err != nil {
			return nil, &RankFailedError{Rank: src, Err: err}
		}
		if timeout > 0 && !time.Now().Before(deadline) {
			return nil, &RankFailedError{Rank: src, Err: ErrRecvTimeout}
		}
		m.cond.Wait()
	}
}

// close marks the mailbox closed and wakes all waiters.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// checkPeer validates a rank argument.
func checkPeer(c Comm, peer int) error {
	if peer < 0 || peer >= c.Size() {
		return fmt.Errorf("mpi: rank %d out of range [0, %d)", peer, c.Size())
	}
	return nil
}
