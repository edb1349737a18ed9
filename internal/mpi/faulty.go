package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"influmax/internal/rng"
)

// This file is the chaos half of the substrate: a Comm decorator that
// injects seeded, deterministic transport faults — per-message latency,
// loss with bounded redelivery, duplication, reordering, and scheduled
// rank crashes — driven by a FaultPlan. Every fault decision is a pure
// function of (plan seed, peer, tag, per-channel sequence number), never
// of the wall clock, so the same plan reproduces the same fault schedule
// on every run.
//
// The decorator plays both ends of an unreliable link. On the send side it
// wraps each payload in an 8-byte sequence envelope and then misbehaves:
// holding a message so the channel's next one overtakes it (reorder),
// sleeping (delay), simulating loss followed by backoff-and-retransmit
// (drop), or sending the envelope twice (duplicate). On the receive side
// it reassembles: duplicates are discarded by sequence number and
// out-of-order arrivals are buffered until their turn, so the Comm
// contract — reliable per-(src, tag) FIFO — still holds above the
// decorator. That is what lets the equivalence suite demand byte-identical
// seed sets from IMMdist under a misbehaving network.
//
// Crashes are the exception: a rank scheduled to die stops cold (its
// transport closes, every later op returns RankFailedError), and the
// survivors detect it — by connection teardown on TCP, or by the plan's
// receive timeout on any transport.

// FaultPlan describes a deterministic schedule of injected faults. The
// zero value injects nothing. All probabilities are in [0, 1] and
// evaluated per message.
type FaultPlan struct {
	// Seed drives every fault decision; same seed, same schedule.
	Seed uint64
	// DelayProb delays a message by a deterministic duration in
	// [0, MaxDelay) before it reaches the transport.
	DelayProb float64
	// MaxDelay bounds injected latency (default 2ms when DelayProb > 0).
	MaxDelay time.Duration
	// DropProb loses a message on the simulated wire. Every loss is
	// followed by a backoff and retransmission, at most MaxRedeliver
	// times, after which delivery is forced — loss is bounded, so the
	// link stays fair-lossy rather than faulty-forever.
	DropProb float64
	// MaxRedeliver bounds consecutive simulated losses of one message
	// (default 3).
	MaxRedeliver int
	// DupProb sends a message twice; the receiving side discards the
	// duplicate by sequence number.
	DupProb float64
	// ReorderProb holds a message back so that the channel's next message
	// overtakes it on the wire; the receiving side restores order.
	ReorderProb float64
	// RecvTimeout bounds every Recv so a crashed peer surfaces as a
	// RankFailedError instead of a hang (0 = block forever; required for
	// crash plans over the in-process transport).
	RecvTimeout time.Duration
	// Crashes schedules rank deaths.
	Crashes []RankCrash
}

// RankCrash kills one rank after it has issued AfterSends sends: the
// send that would exceed the budget fails with ErrInjectedCrash, the
// underlying transport closes, and every subsequent op fails too.
type RankCrash struct {
	Rank       int
	AfterSends int
}

func (p FaultPlan) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return 2 * time.Millisecond
	}
	return p.MaxDelay
}

func (p FaultPlan) maxRedeliver() int {
	if p.MaxRedeliver <= 0 {
		return 3
	}
	return p.MaxRedeliver
}

// String renders the plan in the -fault-plan flag syntax; ParseFaultPlan
// inverts it.
func (p FaultPlan) String() string {
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	if p.DelayProb > 0 {
		parts = append(parts, fmt.Sprintf("delay=%g/%s", p.DelayProb, p.maxDelay()))
	}
	if p.DropProb > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g/%d", p.DropProb, p.maxRedeliver()))
	}
	if p.DupProb > 0 {
		parts = append(parts, fmt.Sprintf("dup=%g", p.DupProb))
	}
	if p.ReorderProb > 0 {
		parts = append(parts, fmt.Sprintf("reorder=%g", p.ReorderProb))
	}
	if p.RecvTimeout > 0 {
		parts = append(parts, fmt.Sprintf("timeout=%s", p.RecvTimeout))
	}
	for _, cr := range p.Crashes {
		parts = append(parts, fmt.Sprintf("kill=%d@%d", cr.Rank, cr.AfterSends))
	}
	return strings.Join(parts, ",")
}

// ParseFaultPlan parses the compact comma-separated plan syntax used by
// the -fault-plan flag:
//
//	seed=7              injector RNG seed
//	delay=0.2/5ms       delay probability / max duration
//	drop=0.1/3          loss probability / redelivery bound
//	dup=0.05            duplication probability
//	reorder=0.1         reorder probability
//	timeout=2s          receive timeout (peer-failure detection bound)
//	kill=1@500          crash rank 1 after 500 sends (repeatable)
//
// e.g. "seed=7,delay=0.2/5ms,drop=0.1/3,dup=0.05,reorder=0.1,timeout=2s".
func ParseFaultPlan(s string) (FaultPlan, error) {
	var p FaultPlan
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	prob := func(key, v string) (float64, error) {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil || x < 0 || x > 1 {
			return 0, fmt.Errorf("mpi: fault plan %s=%q: want probability in [0, 1]", key, v)
		}
		return x, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return p, fmt.Errorf("mpi: fault plan field %q: want key=value", field)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseUint(val, 10, 64)
			if err != nil {
				return p, fmt.Errorf("mpi: fault plan seed %q: %v", val, err)
			}
		case "delay":
			pr, rest, _ := strings.Cut(val, "/")
			if p.DelayProb, err = prob(key, pr); err != nil {
				return p, err
			}
			if rest != "" {
				if p.MaxDelay, err = time.ParseDuration(rest); err != nil {
					return p, fmt.Errorf("mpi: fault plan delay duration %q: %v", rest, err)
				}
			}
		case "drop":
			pr, rest, _ := strings.Cut(val, "/")
			if p.DropProb, err = prob(key, pr); err != nil {
				return p, err
			}
			if rest != "" {
				if p.MaxRedeliver, err = strconv.Atoi(rest); err != nil || p.MaxRedeliver < 1 {
					return p, fmt.Errorf("mpi: fault plan redelivery bound %q: want positive int", rest)
				}
			}
		case "dup":
			if p.DupProb, err = prob(key, val); err != nil {
				return p, err
			}
		case "reorder":
			if p.ReorderProb, err = prob(key, val); err != nil {
				return p, err
			}
		case "timeout":
			if p.RecvTimeout, err = time.ParseDuration(val); err != nil {
				return p, fmt.Errorf("mpi: fault plan timeout %q: %v", val, err)
			}
		case "kill":
			r, after, ok := strings.Cut(val, "@")
			var cr RankCrash
			if cr.Rank, err = strconv.Atoi(r); !ok || err != nil {
				return p, fmt.Errorf("mpi: fault plan kill %q: want rank@sends", val)
			}
			if cr.AfterSends, err = strconv.Atoi(after); err != nil || cr.AfterSends < 0 {
				return p, fmt.Errorf("mpi: fault plan kill %q: want rank@sends", val)
			}
			p.Crashes = append(p.Crashes, cr)
		default:
			return p, fmt.Errorf("mpi: fault plan: unknown key %q", key)
		}
	}
	return p, nil
}

// Fault-decision salts: one namespace per decision kind so the coins of a
// single message are independent.
const (
	saltDelay uint64 = 0x5ee00000001 + iota
	saltDelayLen
	saltDup
	saltReorder
	saltDrop // consumes maxRedeliver consecutive salts, keep last
)

// coin returns the uniform [0, 1) fault coin of (peer, tag, seq, salt) —
// a pure function of the plan seed, so schedules replay exactly.
func (p FaultPlan) coin(peer, tag int, seq, salt uint64) float64 {
	h := p.Seed ^ 0x6fa17000c0117a05
	h = rng.Mix64(h ^ uint64(int64(peer))*0x9e3779b97f4a7c15)
	h = rng.Mix64(h ^ uint64(int64(tag))*0xd1342543de82ef95)
	h = rng.Mix64(h ^ seq*0x632be59bd9b4e019 ^ salt)
	return float64(h>>11) * (1.0 / (1 << 53))
}

// chanKey identifies one directed (peer, tag) message channel.
type chanKey struct {
	peer, tag int
}

// heldEnv is a send-side deferred envelope (the reorder slot).
type heldEnv struct {
	key chanKey
	seq uint64
	env []byte
}

// recvChan is the receive-side reassembly state of one channel.
type recvChan struct {
	next    uint64            // next sequence number to deliver
	pending map[uint64][]byte // out-of-order arrivals, keyed by seq
}

// faultyComm decorates any transport with the plan's faults. Like every
// Comm, an endpoint is driven by one goroutine (its rank's).
type faultyComm struct {
	inner      Comm
	plan       FaultPlan
	crashAfter int // sends budget before the scheduled crash; -1 = never

	mu      sync.Mutex
	sendSeq map[chanKey]uint64
	held    map[chanKey]heldEnv
	sends   int
	crashed *RankFailedError

	recvMu sync.Mutex
	recv   map[chanKey]*recvChan

	stats statCounters
}

// WithFaults wraps inner in the fault-injecting decorator. A plan that
// changes no behavior returns inner unchanged. Close the returned Comm
// once the rank's conversation is over: the reorder fault may still be
// holding the channel's final envelope, and only a later Send, a Recv,
// or Close releases it.
func WithFaults(inner Comm, plan FaultPlan) Comm {
	active := plan.DelayProb > 0 || plan.DropProb > 0 || plan.DupProb > 0 || plan.ReorderProb > 0 ||
		plan.RecvTimeout > 0 || len(plan.Crashes) > 0
	if !active {
		return inner
	}
	f := &faultyComm{
		inner:      inner,
		plan:       plan,
		crashAfter: -1,
		sendSeq:    make(map[chanKey]uint64),
		held:       make(map[chanKey]heldEnv),
		recv:       make(map[chanKey]*recvChan),
	}
	for _, cr := range plan.Crashes {
		if cr.Rank == inner.Rank() {
			f.crashAfter = cr.AfterSends
		}
	}
	return f
}

func (f *faultyComm) Rank() int { return f.inner.Rank() }
func (f *faultyComm) Size() int { return f.inner.Size() }

// CommStats merges the injector's counters with the wrapped transport's.
func (f *faultyComm) CommStats() CommStats {
	return f.stats.snapshot().add(StatsOf(f.inner))
}

func (f *faultyComm) Send(dst, tag int, payload []byte) error {
	f.mu.Lock()
	if f.crashed != nil {
		err := f.crashed
		f.mu.Unlock()
		return err
	}
	f.sends++
	if f.crashAfter >= 0 && f.sends > f.crashAfter {
		f.crashed = &RankFailedError{Rank: f.inner.Rank(), Err: ErrInjectedCrash}
		err := f.crashed
		f.mu.Unlock()
		f.inner.Close()
		return err
	}
	f.stats.sends.Add(1)
	k := chanKey{dst, tag}
	seq := f.sendSeq[k]
	f.sendSeq[k] = seq + 1
	env := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint64(env, seq)
	copy(env[8:], payload)

	release, hadHeld := f.held[k]
	delete(f.held, k)
	if !hadHeld && f.plan.ReorderProb > 0 && f.plan.coin(dst, tag, seq, saltReorder) < f.plan.ReorderProb {
		// Defer this envelope: the channel's next message (or the next
		// Recv/Close, whichever comes first — see flushHeld) overtakes it,
		// so it arrives out of order and exercises the reassembly path.
		f.held[k] = heldEnv{key: k, seq: seq, env: env}
		f.stats.reorders.Add(1)
		f.mu.Unlock()
		return nil
	}
	f.mu.Unlock()
	if err := f.deliver(dst, tag, seq, env); err != nil {
		return err
	}
	if hadHeld {
		return f.deliver(dst, tag, release.seq, release.env)
	}
	return nil
}

// deliver pushes one envelope through the delay/drop/duplicate pipeline
// into the wrapped transport.
func (f *faultyComm) deliver(dst, tag int, seq uint64, env []byte) error {
	p := f.plan
	if p.DelayProb > 0 && p.coin(dst, tag, seq, saltDelay) < p.DelayProb {
		f.stats.delays.Add(1)
		d := time.Duration(p.coin(dst, tag, seq, saltDelayLen) * float64(p.maxDelay()))
		time.Sleep(d)
	}
	for attempt := 0; p.DropProb > 0 && attempt < p.maxRedeliver() &&
		p.coin(dst, tag, seq, saltDrop+uint64(attempt)) < p.DropProb; attempt++ {
		// The message is "lost"; back off as a retransmission would, then
		// offer it again. Past MaxRedeliver losses delivery is forced.
		f.stats.drops.Add(1)
		time.Sleep(time.Duration(100<<min(attempt, 4)) * time.Microsecond)
	}
	if err := f.inner.Send(dst, tag, env); err != nil {
		return wrapSendErr(dst, err)
	}
	if p.DupProb > 0 && p.coin(dst, tag, seq, saltDup) < p.DupProb {
		f.stats.dups.Add(1)
		// The duplicate is wire noise on top of a delivered message: if the
		// peer has moved on (endpoint closed between the two copies), the
		// copy vanishing is exactly what a real network would do.
		f.inner.Send(dst, tag, env)
	}
	return nil
}

// wrapSendErr types a send into a closed endpoint as a rank failure: over
// the in-process transport a crashed peer's mailbox reports ErrClosed, and
// survivors must see the same typed error the TCP transport produces.
func wrapSendErr(dst int, err error) error {
	if errors.Is(err, ErrClosed) {
		return &RankFailedError{Rank: dst, Err: err}
	}
	return err
}

// flushHeld releases every deferred envelope. Called before blocking in
// Recv and on Close, which guarantees liveness: a held message cannot
// outlive the sender's next receive, so request-reply protocols (all the
// collectives) never deadlock on a deferred send.
func (f *faultyComm) flushHeld() error {
	f.mu.Lock()
	if len(f.held) == 0 {
		f.mu.Unlock()
		return nil
	}
	held := make([]heldEnv, 0, len(f.held))
	for _, h := range f.held {
		held = append(held, h)
	}
	clear(f.held)
	f.mu.Unlock()
	sort.Slice(held, func(i, j int) bool {
		a, b := held[i].key, held[j].key
		if a.peer != b.peer {
			return a.peer < b.peer
		}
		return a.tag < b.tag
	})
	for _, h := range held {
		if err := f.deliver(h.key.peer, h.key.tag, h.seq, h.env); err != nil {
			return err
		}
	}
	return nil
}

func (f *faultyComm) Recv(src, tag int) ([]byte, error) {
	return f.RecvDeadline(src, tag, f.plan.RecvTimeout)
}

// RecvDeadline receives with a bounded wait, reassembling the envelope
// stream: duplicates are dropped by sequence number and out-of-order
// arrivals buffered until their turn, restoring the per-channel FIFO
// contract above the injected faults.
func (f *faultyComm) RecvDeadline(src, tag int, timeout time.Duration) ([]byte, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed != nil {
		return nil, crashed
	}
	if err := f.flushHeld(); err != nil {
		return nil, err
	}
	f.recvMu.Lock()
	defer f.recvMu.Unlock()
	k := chanKey{src, tag}
	ch := f.recv[k]
	if ch == nil {
		ch = &recvChan{pending: make(map[uint64][]byte)}
		f.recv[k] = ch
	}
	for {
		if payload, ok := ch.pending[ch.next]; ok {
			delete(ch.pending, ch.next)
			ch.next++
			return payload, nil
		}
		// Timeout 0 defers to the inner Recv, which applies the inner
		// transport's own configured timeout (TCP's RecvTimeout).
		var env []byte
		var err error
		if timeout > 0 {
			env, err = f.inner.RecvDeadline(src, tag, timeout)
		} else {
			env, err = f.inner.Recv(src, tag)
		}
		if err != nil {
			return nil, err
		}
		if len(env) < 8 {
			return nil, fmt.Errorf("mpi: fault injector received short envelope (%d bytes)", len(env))
		}
		seq := binary.LittleEndian.Uint64(env)
		if seq < ch.next {
			continue // duplicate of an already delivered message
		}
		ch.pending[seq] = env[8:]
	}
}

func (f *faultyComm) Close() error {
	f.flushHeld()
	return f.inner.Close()
}
