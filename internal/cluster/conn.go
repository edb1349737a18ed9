package cluster

import (
	"errors"
	"time"

	"influmax/internal/graph"
	"influmax/internal/mpi"
)

// Message tags for the mpi.Comm transport (non-negative: the collectives
// reserve negative tags).
const (
	tagRequest  = 64
	tagResponse = 65
)

// Conn is the router's handle on one shard: the wire operations over
// whichever transport. Implementations turn every transport failure into
// an *mpi.RankFailedError whose Rank is the shard's fleet slot, so the
// router's failure handling is transport-agnostic.
type Conn interface {
	Info() (ShardInfo, error)
	Start(session uint64) ([]int64, error)
	// StartFiltered opens an audience-filtered session (targeted
	// influence): counts run over audience-rooted samples only, and the
	// eligible sample count comes back alongside.
	StartFiltered(session uint64, audience []graph.Vertex) ([]int64, int64, error)
	Purge(session uint64, v graph.Vertex) ([]DecPair, error)
	// Spread is the stateless seed-set spread estimate over the shard's
	// samples (audience optional; empty means unrestricted).
	Spread(seeds, audience []graph.Vertex) (covered, eligible int64, err error)
	End(session uint64) error
	Close() error
}

// failedErr coerces a transport error into *mpi.RankFailedError blaming
// slot (already-typed failures pass through untouched).
func failedErr(slot int, err error) error {
	if err == nil {
		return nil
	}
	var rf *mpi.RankFailedError
	if errors.As(err, &rf) {
		return err
	}
	return &mpi.RankFailedError{Rank: slot, Err: err}
}

// wireOps implements the shard operations of Conn over one transport's
// request/response round trip; each transport embeds one.
type wireOps struct {
	roundTrip func(request) ([]byte, error)
}

func (o wireOps) Info() (ShardInfo, error) {
	resp, err := o.roundTrip(request{op: opInfo})
	if err != nil {
		return ShardInfo{}, err
	}
	return decodeInfoResp(resp)
}

func (o wireOps) Start(session uint64) ([]int64, error) {
	resp, err := o.roundTrip(request{op: opStart, session: session})
	if err != nil {
		return nil, err
	}
	return decodeCountsResp(resp)
}

func (o wireOps) StartFiltered(session uint64, audience []graph.Vertex) ([]int64, int64, error) {
	resp, err := o.roundTrip(request{op: opStartFiltered, session: session, audience: audience})
	if err != nil {
		return nil, 0, err
	}
	return decodeFilteredCountsResp(resp)
}

func (o wireOps) Spread(seeds, audience []graph.Vertex) (int64, int64, error) {
	resp, err := o.roundTrip(request{op: opSpread, seeds: seeds, audience: audience})
	if err != nil {
		return 0, 0, err
	}
	return decodeSpreadResp(resp)
}

func (o wireOps) Purge(session uint64, v graph.Vertex) ([]DecPair, error) {
	resp, err := o.roundTrip(request{op: opPurge, session: session, vertex: v})
	if err != nil {
		return nil, err
	}
	return decodeDecsResp(resp)
}

func (o wireOps) End(session uint64) error {
	resp, err := o.roundTrip(request{op: opEnd, session: session})
	if err != nil {
		return err
	}
	return decodeAckResp(resp)
}

// CommConn speaks the shard protocol over an mpi.Comm point-to-point
// channel to peer — the transport the deterministic failover tests run
// on, since the comm can be wrapped in mpi.WithFaults kill plans. timeout
// bounds each response wait; expiry surfaces the shard as failed.
type CommConn struct {
	wireOps
	c       mpi.Comm
	peer    int
	slot    int
	timeout time.Duration
}

// NewCommConn wraps one peer rank of c as a shard connection for fleet
// slot `slot`.
func NewCommConn(c mpi.Comm, peer, slot int, timeout time.Duration) *CommConn {
	cc := &CommConn{c: c, peer: peer, slot: slot, timeout: timeout}
	cc.wireOps = wireOps{cc.roundTrip}
	return cc
}

func (cc *CommConn) roundTrip(req request) ([]byte, error) {
	if err := cc.c.Send(cc.peer, tagRequest, encodeRequest(req)); err != nil {
		return nil, failedErr(cc.slot, err)
	}
	payload, err := cc.c.RecvDeadline(cc.peer, tagResponse, cc.timeout)
	if err != nil {
		return nil, failedErr(cc.slot, err)
	}
	return payload, nil
}

func (cc *CommConn) Close() error { return nil }

// ServeComm runs sh's request loop over c: receive a request from the
// router rank, execute, reply, until the communicator dies (the returned
// error; a closed comm is the normal shutdown path). Protocol-level
// failures (bad request, unknown session) are answered in-band and do not
// stop the loop.
func ServeComm(c mpi.Comm, router int, sh *Shard) error {
	for {
		payload, err := c.Recv(router, tagRequest)
		if err != nil {
			return err
		}
		if err := c.Send(router, tagResponse, sh.handle(payload)); err != nil {
			return err
		}
	}
}
