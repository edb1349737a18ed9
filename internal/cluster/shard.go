package cluster

import (
	"fmt"
	"sync"

	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/rrr"
)

// maxSessions bounds concurrently open greedy sessions per shard; past it
// the oldest session is evicted (its router sees an unknown-session error
// and treats the shard as failed for that query, never a hang).
const maxSessions = 64

// Shard is one replica's slice of the fleet's RRR samples, query-ready:
// the contiguous id range [First, First+Col.Count()) of the fleet's one
// sample draw (BuildShards, BuildShard), so the union over a fleet is the
// single-process sample set.
// It serves any number of concurrent greedy sessions, each carrying only
// a covered bitset over the local samples; mutating calls are serialized
// on an internal mutex.
type Shard struct {
	// Meta is the sketch configuration (graph digest, model, epsilon,
	// kMax, seed, theta) shared by every shard of the fleet.
	Meta rrr.SnapshotMeta
	// Col holds this shard's samples; Idx is its inverted incidence.
	Col *rrr.CodedCollection
	Idx *rrr.Index
	// ShardIdx/ShardCount place this shard in the fleet's partition.
	ShardIdx   int
	ShardCount int
	// First is the global id of local sample 0: local sample j is global
	// sample First+j.
	First uint64
	// Epoch counts the mutation batches folded into this shard (zero for
	// static sketches). The router refuses to merge counts across shards
	// at different epochs.
	Epoch uint64
	// Roots maps each local sample to its root vertex, re-derived by
	// newShard from First (imm.RootsRange): a PerSample root is a pure
	// function of (seed, global id, n), so it is never stored. Required
	// only by the audience-filtered ops; a shard without it answers those
	// ops with an in-band error while everything else keeps serving.
	Roots []graph.Vertex

	mu       sync.Mutex
	sessions map[uint64]*session
	seq      uint64
	// Purge scratch, guarded by mu: dense decrement accumulator plus the
	// touched-vertex list that sparsifies it, and a member decode buffer.
	dec     []uint32
	touched []graph.Vertex
	members []graph.Vertex
}

// session is one greedy selection in flight: which local samples the
// chosen seeds have covered so far.
type session struct {
	seq     uint64
	covered rrr.Bitset
}

// newShard assembles a query-ready shard whose samples are global ids
// [first, first+col.Count()), deriving their roots with p workers. idx may
// be nil, in which case the incidence index is built with p workers too.
func newShard(meta rrr.SnapshotMeta, col *rrr.CodedCollection, idx *rrr.Index, shardIdx, shardCount int, first, epoch uint64, p int) (*Shard, error) {
	if col == nil {
		return nil, fmt.Errorf("cluster: shard needs a sample collection")
	}
	if shardCount < 1 || shardIdx < 0 || shardIdx >= shardCount {
		return nil, fmt.Errorf("cluster: shard index %d out of [0, %d)", shardIdx, shardCount)
	}
	if idx == nil {
		idx = rrr.BuildIndexCoded(col, p)
	}
	return &Shard{
		Meta: meta, Col: col, Idx: idx,
		ShardIdx: shardIdx, ShardCount: shardCount, First: first, Epoch: epoch,
		Roots:    imm.RootsRange(meta.Seed, first, col.Count(), col.NumVertices(), p),
		sessions: make(map[uint64]*session),
		dec:      make([]uint32, col.NumVertices()),
	}, nil
}

// Info reports the shard's identity and configuration.
func (sh *Shard) Info() ShardInfo {
	return ShardInfo{
		ShardIdx:    sh.ShardIdx,
		ShardCount:  sh.ShardCount,
		Epoch:       sh.Epoch,
		Samples:     sh.Col.Count(),
		NumVertices: sh.Col.NumVertices(),
		GraphDigest: sh.Meta.GraphDigest,
		Model:       sh.Meta.Model,
		Epsilon:     sh.Meta.Epsilon,
		KMax:        sh.Meta.KMax,
		Seed:        sh.Meta.Seed,
		Theta:       sh.Meta.Theta,
	}
}

// Start opens greedy session id (replacing any session already under that
// id) and returns this shard's per-vertex sample membership counts — the
// local summand of the fleet-merged coverage counter, read straight off
// the index degree column as in imm.CodedCoverage.
func (sh *Shard) Start(id uint64) []int64 {
	n := sh.Col.NumVertices()
	counts := make([]int64, n)
	for v := 0; v < n; v++ {
		counts[v] = sh.Idx.Degree(graph.Vertex(v))
	}
	sh.openSession(id, rrr.NewBitset(sh.Col.Count()))
	return counts
}

// openSession installs session id (replacing any session already under
// that id) with its starting covered set, evicting the oldest session past
// maxSessions.
func (sh *Shard) openSession(id uint64, covered rrr.Bitset) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.seq++
	sh.sessions[id] = &session{seq: sh.seq, covered: covered}
	if len(sh.sessions) > maxSessions {
		var oldID uint64
		oldSeq := sh.seq + 1
		for sid, s := range sh.sessions {
			if s.seq < oldSeq {
				oldSeq, oldID = s.seq, sid
			}
		}
		delete(sh.sessions, oldID)
	}
}

// Purge marks seed v's still-uncovered local samples covered and returns
// the sparse per-vertex decrements those samples contribute — the local
// summand of the round's merged decrement vector. Decrements are emitted
// in first-touch order; the merge is a sum, so order never matters.
func (sh *Shard) Purge(id uint64, v graph.Vertex) ([]DecPair, error) {
	if int(v) >= sh.Col.NumVertices() {
		return nil, fmt.Errorf("cluster: purge vertex %d out of range (n = %d)", v, sh.Col.NumVertices())
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ses := sh.sessions[id]
	if ses == nil {
		return nil, fmt.Errorf("cluster: unknown session %d (evicted or never started)", id)
	}
	sh.touched = sh.touched[:0]
	run := sh.Col.Run()
	for _, j := range sh.Idx.SamplesOf(v) {
		if ses.covered.Get(int(j)) {
			continue
		}
		ses.covered.Set(int(j))
		sh.members = run.Append(int(j), sh.members[:0])
		for _, u := range sh.members {
			if sh.dec[u] == 0 {
				sh.touched = append(sh.touched, u)
			}
			sh.dec[u]++
		}
	}
	pairs := make([]DecPair, len(sh.touched))
	for i, u := range sh.touched {
		pairs[i] = DecPair{V: u, Dec: sh.dec[u]}
		sh.dec[u] = 0
	}
	return pairs, nil
}

// StartFiltered opens greedy session id restricted to samples rooted in
// the audience: samples rooted elsewhere are pre-marked covered (so later
// Purge calls skip them) and the returned dense counts run over the
// eligible remainder only, whose size is returned alongside. Requires
// sample roots.
func (sh *Shard) StartFiltered(id uint64, audience []graph.Vertex) ([]int64, int64, error) {
	n := sh.Col.NumVertices()
	if err := sh.needRoots(); err != nil {
		return nil, 0, err
	}
	if len(audience) == 0 {
		return nil, 0, fmt.Errorf("cluster: filtered start with an empty audience")
	}
	inAud := make([]bool, n)
	for _, v := range audience {
		if int(v) >= n {
			return nil, 0, fmt.Errorf("cluster: audience vertex %d out of range (n = %d)", v, n)
		}
		inAud[v] = true
	}
	covered := rrr.NewBitset(sh.Col.Count())
	var eligible int64
	acc := make([]int32, n)
	run := sh.Col.Run()
	for j, r := range sh.Roots {
		if !inAud[r] {
			covered.Set(j)
			continue
		}
		eligible++
		run.Accum(j, acc, 1)
	}
	counts := make([]int64, n)
	for v, c := range acc {
		counts[v] = int64(c)
	}
	sh.openSession(id, covered)
	return counts, eligible, nil
}

// Spread is the stateless spread estimate over this shard's samples: how
// many of them (optionally restricted to audience-rooted ones) the seed
// set covers. Read entirely off the incidence index; never touches a
// session.
func (sh *Shard) Spread(seeds, audience []graph.Vertex) (covered, eligible int64, err error) {
	if len(audience) == 0 {
		return imm.CoverageOf(sh.Col.Count(), sh.Idx, nil, seeds, nil)
	}
	if err := sh.needRoots(); err != nil {
		return 0, 0, err
	}
	return imm.CoverageOf(sh.Col.Count(), sh.Idx, sh.Roots, seeds, audience)
}

// needRoots is the in-band refusal of audience-filtered work on a shard
// whose root column is missing.
func (sh *Shard) needRoots() error {
	if len(sh.Roots) != sh.Col.Count() {
		return fmt.Errorf("cluster: shard %d has no sample roots; rebuild it", sh.ShardIdx)
	}
	return nil
}

// End closes session id; unknown ids are a no-op (End is best-effort
// cleanup on the router side).
func (sh *Shard) End(id uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.sessions, id)
}

// handle executes one encoded wire request and encodes the reply (a
// malformed request is answered in-band); it is the single dispatch point
// both transports (ServeComm and the HTTP handler) call into.
func (sh *Shard) handle(payload []byte) []byte {
	req, err := decodeRequest(payload)
	if err != nil {
		return encodeErrorResp(err.Error())
	}
	switch req.op {
	case opInfo:
		return encodeInfoResp(sh.Info())
	case opStart:
		return encodeCountsResp(sh.Start(req.session))
	case opPurge:
		pairs, err := sh.Purge(req.session, req.vertex)
		if err != nil {
			return encodeErrorResp(err.Error())
		}
		return encodeDecsResp(pairs)
	case opStartFiltered:
		counts, eligible, err := sh.StartFiltered(req.session, req.audience)
		if err != nil {
			return encodeErrorResp(err.Error())
		}
		return encodeFilteredCountsResp(counts, eligible)
	case opSpread:
		covered, eligible, err := sh.Spread(req.seeds, req.audience)
		if err != nil {
			return encodeErrorResp(err.Error())
		}
		return encodeSpreadResp(covered, eligible)
	case opEnd:
		sh.End(req.session)
		return encodeAckResp()
	default:
		return encodeErrorResp(fmt.Sprintf("cluster: unknown op %d", req.op))
	}
}
