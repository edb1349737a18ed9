package dist

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/mpi"
	"influmax/internal/par"
	"influmax/internal/rng"
	"influmax/internal/rrr"
	"influmax/internal/trace"
)

// This file implements the paper's first future-work item: "extension to
// settings where the input graph is also partitioned (in addition to R)".
//
// Decomposition. The vertex set is split into p contiguous intervals; rank
// r materializes only the incoming edges of its owned vertices (the data a
// reverse traversal expands). Reverse-reachability sampling becomes a
// bulk-synchronous computation: each superstep expands the local frontier
// of every in-flight sample, and frontier vertices owned by other ranks
// are exchanged all-to-all. Edge coins are common-random-numbers —
// edge e is live in sample s iff hash(seed, s, e) < p(e) — so the sampled
// live-edge subgraph, and therefore every RRR set, is a pure function of
// (seed, sample id), independent of p. The resulting store is
// vertex-partitioned: rank r holds, for every sample, the members inside
// its interval.
//
// Seed selection exploits that layout (partCoverage, a backend of the
// shared imm.Greedy engine): each rank counts its own interval, and Start
// gathers the intervals once into a count column every rank holds, so the
// argmax needs no collective. A purge broadcasts the matched sample ids
// from the owner of the chosen seed and all-gathers the (vertex,
// decrement) pairs the ranks touched — O(k (p + |R_v| + touched))
// communication, no round of it O(n), instead of the sample-partitioned
// version's O(k n log p). Estimation runs through imm.Estimate like every
// other pipeline.

// PartOptions configures a graph-partitioned run. All ranks must pass
// identical options.
type PartOptions struct {
	// K is the seed-set cardinality.
	K int
	// Epsilon is the accuracy parameter in (0, 1).
	Epsilon float64
	// Model is the diffusion model.
	Model diffuse.Model
	// Seed feeds the common-random-numbers coins; must agree across ranks.
	Seed uint64
	// L is the confidence exponent (0 means 1).
	L float64
	// Batch is the number of samples in flight per superstep wave
	// (0 means 1024).
	Batch int
	// Threads is the intra-rank thread count for the CPU-bound pieces of a
	// wave (member-list sorting, shard index builds); <= 0 means 1. The
	// result does not depend on it. The wave expansion itself batches every
	// in-flight sample over each rank's shard by construction (each
	// superstep is one fused pass over the local CSR), so there is no
	// kernel to select.
	Threads int
	// Store selects each rank's resident store for the final selection,
	// exactly as dist.Options.Store: imm.StoreCoded transcodes the rank's
	// vertex-partitioned shard after sampling under a rank-local frequency
	// relabeling. Must agree across ranks; the seeds do not depend on it.
	Store imm.StoreKind
}

// PartResult reports a graph-partitioned run.
type PartResult struct {
	// Seeds is the seed set, identical on every rank.
	Seeds []graph.Vertex
	// CoverageFraction and EstimatedSpread mirror dist.Result.
	CoverageFraction float64
	EstimatedSpread  float64
	// Theta and SamplesGenerated mirror dist.Result (samples are global;
	// every rank stores its vertex-interval slice of each).
	Theta            int64
	SamplesGenerated int64
	// OwnedLo, OwnedHi is this rank's vertex interval.
	OwnedLo, OwnedHi graph.Vertex
	// Store is the representation this rank's final selection ran over.
	Store imm.StoreKind
	// StoreBytes is this rank's partition of the RRR store.
	StoreBytes int64
	// FlatStoreBytes is what this rank's partition costs in the flat
	// layout (equal to StoreBytes for flat runs).
	FlatStoreBytes int64
	// IndexBytes is this rank's inverted-incidence index footprint over
	// its local shard (owned-interval members only).
	IndexBytes int64
	// Phases is the wall-clock breakdown.
	Phases trace.Times
	// Ranks is the communicator size.
	Ranks int
	// CommStats is this rank's transport/fault-injection counter snapshot.
	CommStats mpi.CommStats
	// FailedRank mirrors dist.Result: -1 on a clean run, otherwise the
	// peer blamed for the degraded (partial) result returned with a
	// RankFailedError.
	FailedRank int
}

// partition is the slice of the graph a rank owns: the in-edges of its
// vertex interval, with global in-CSR slot ids preserved for the CRN
// coins.
type partition struct {
	n      int // global vertex count
	lo, hi graph.Vertex
	// off is indexed by (v - lo); srcs/ws/slot hold the in-edges.
	off  []int64
	srcs []graph.Vertex
	ws   []float32
	slot []int64
	m    int64 // global edge count (coin-space layout)
}

// carvePartition copies rank's owned in-edges out of g. In a production
// deployment each rank would load only this data from storage; carving
// makes the algorithm's data access honest — nothing below touches g.
func carvePartition(g *graph.Graph, rank, size int) *partition {
	n := g.NumVertices()
	lo, hi := par.Interval(n, size, rank)
	p := &partition{n: n, lo: graph.Vertex(lo), hi: graph.Vertex(hi), m: g.NumEdges()}
	p.off = make([]int64, hi-lo+1)
	for v := lo; v < hi; v++ {
		srcs, ws := g.InNeighbors(graph.Vertex(v))
		base := g.InEdgeBase(graph.Vertex(v))
		p.off[v-lo+1] = p.off[v-lo] + int64(len(srcs))
		p.srcs = append(p.srcs, srcs...)
		p.ws = append(p.ws, ws...)
		for i := range srcs {
			p.slot = append(p.slot, base+int64(i))
		}
	}
	return p
}

// inEdges returns the owned in-edges of v.
func (p *partition) inEdges(v graph.Vertex) (srcs []graph.Vertex, ws []float32, slots []int64) {
	i := v - p.lo
	a, b := p.off[i], p.off[i+1]
	return p.srcs[a:b], p.ws[a:b], p.slot[a:b]
}

// owner returns the rank owning vertex v under the standard interval
// split.
func owner(n, size int, v graph.Vertex) int {
	// Invert Interval: the owner is the largest r with n*r/p <= v.
	r := (int(v)*size + size - 1) / n
	for r < size-1 && int(v) >= n*(r+1)/size {
		r++
	}
	for r > 0 && int(v) < n*r/size {
		r--
	}
	return r
}

// sampleKey derives the CRN key of a global sample id.
func sampleKey(seed uint64, id int64) uint64 {
	return rng.Mix64(seed ^ 0x9e3779b97f4a7c15 ^ uint64(id)*0xd1342543de82ef95)
}

// coin returns the uniform coin of (key, identity).
func coin(key, id uint64) float64 {
	return float64(rng.Mix64(key^(id*0x9e3779b97f4a7c15+0x632be59bd9b4e019))>>11) * (1.0 / (1 << 53))
}

// pair is one frontier item: sample index within the batch plus the
// vertex entering it. Crossing ranks it travels as one word, the vertex
// above the sample.
type pair struct {
	s uint32
	v graph.Vertex
}

// partState carries the run state.
type partState struct {
	c      mpi.Comm
	part   *partition
	opt    PartOptions
	col    *rrr.Collection      // vertex-partitioned: sample -> owned members
	coded  *rrr.CodedCollection // non-nil once the shard is transcoded (Store == imm.StoreCoded)
	global int64                // samples generated so far

	// batch scratch
	visited []bool // [batch * ownedWidth] bitfield, rebuilt per wave
}

// RunPartitioned executes graph-partitioned IMM over the communicator.
// Every rank must call it with the same graph and options; the seed set it
// returns is identical on every rank and — because the live-edge coins
// are per-sample — identical for every rank count.
func RunPartitioned(c mpi.Comm, g *graph.Graph, opt PartOptions) (*PartResult, error) {
	if opt.L == 0 {
		opt.L = 1
	}
	if opt.Batch <= 0 {
		opt.Batch = 1024
	}
	if opt.Threads <= 0 {
		opt.Threads = 1
	}
	if err := validate(opt.K, opt.Epsilon, opt.Store, g.NumVertices()); err != nil {
		return nil, err
	}
	res := &PartResult{Ranks: c.Size(), Store: opt.Store, FailedRank: -1}
	startOther := time.Now()
	st := &partState{
		c:    c,
		part: carvePartition(g, c.Rank(), c.Size()),
		opt:  opt,
		col:  rrr.NewCollection(g.NumVertices()),
	}
	res.OwnedLo, res.OwnedHi = st.part.lo, st.part.hi
	tm := imm.NewAnalysis(g.NumVertices(), opt.K, opt.Epsilon, opt.L)
	res.Phases.Add(trace.Other, time.Since(startOther))

	// finish / degraded mirror dist.Run: rank-local bookkeeping is stamped
	// on clean and degraded exits alike, and a rank failure yields the
	// partial result together with the typed error.
	finish := func() {
		res.SamplesGenerated = st.global
		if st.coded != nil {
			res.StoreBytes = st.coded.Bytes()
			res.FlatStoreBytes = st.coded.FlatBytes()
		} else {
			res.StoreBytes = st.col.Bytes()
			res.FlatStoreBytes = st.col.Bytes()
		}
		res.CommStats = mpi.StatsOf(c)
	}
	degraded := func(err error) (*PartResult, error) {
		var rf *mpi.RankFailedError
		if !errors.As(err, &rf) {
			return nil, err
		}
		res.FailedRank = rf.Rank
		finish()
		return res, err
	}

	var err error
	if res.Theta, _, err = imm.Estimate(st, tm, opt.K, &res.Phases); err != nil {
		return degraded(err)
	}

	// Transcode and final index, rank-local as in dist.Run. The index of
	// this rank's shard (samples restricted to the owned vertex interval)
	// makes the seed owner's purge enumeration a lookup.
	col := st.col
	if opt.Store == imm.StoreCoded {
		st.col = nil
	}
	var idx *rrr.Index
	st.coded, idx = imm.FinalIndex(col, opt.Store, opt.Store == imm.StoreCoded, opt.Threads, &res.Phases)
	res.IndexBytes = idx.Bytes()

	var sel *imm.QueryResult
	res.Phases.Measure(trace.SelectSeeds, func() { sel, err = st.selectSeeds(idx, opt.K) })
	res.Seeds = sel.Seeds
	res.CoverageFraction = float64(sel.Covered) / float64(st.global)
	res.EstimatedSpread = res.CoverageFraction * tm.N()
	if err != nil {
		return degraded(err)
	}
	finish()
	return res, nil
}

// Extend generates count global samples in waves of Batch supersteps
// (imm.Samples).
func (st *partState) Extend(count int64) (int64, error) {
	for count > 0 {
		b := min(int64(st.opt.Batch), count)
		if err := st.sampleWave(int(b)); err != nil {
			return st.global, err
		}
		count -= b
	}
	return st.global, nil
}

// sampleWave runs one BSP wave of `batch` concurrent samples with global
// ids [st.global, st.global+batch).
func (st *partState) sampleWave(batch int) error {
	p := st.part
	size := st.c.Size()
	width := int(p.hi - p.lo)
	if len(st.visited) < batch*width {
		st.visited = make([]bool, batch*width)
	} else {
		clear(st.visited[:batch*width])
	}
	keys := make([]uint64, batch)
	members := make([][]graph.Vertex, batch)
	var frontier, next []pair
	outgoing := make([][]uint64, size)
	// visit adds a newly live vertex u to sample s and queues it for the
	// next superstep, unless another rank owns u: then it goes to the
	// owner's outbox.
	visit := func(s uint32, u graph.Vertex) {
		if u < p.lo || u >= p.hi {
			dst := owner(p.n, size, u)
			outgoing[dst] = append(outgoing[dst], uint64(u)<<32|uint64(s))
		} else if vf := &st.visited[int(s)*width+int(u-p.lo)]; !*vf {
			*vf = true
			members[s] = append(members[s], u)
			next = append(next, pair{s, u})
		}
	}

	// Roots: uniform from the sample's own stream; the owner seeds its
	// frontier.
	for s := 0; s < batch; s++ {
		id := st.global + int64(s)
		keys[s] = sampleKey(st.opt.Seed, id)
		r := rng.New(rng.Derive(st.opt.Seed, uint64(id)))
		if root := graph.Vertex(r.Intn(p.n)); root >= p.lo && root < p.hi {
			visit(uint32(s), root)
		}
	}

	for {
		frontier, next = next, frontier[:0]
		for i := range outgoing {
			outgoing[i] = outgoing[i][:0]
		}
		// Expand owned frontier vertices.
		for _, f := range frontier {
			s := int(f.s)
			srcs, ws, slots := p.inEdges(f.v)
			switch st.opt.Model {
			case diffuse.IC:
				for i, u := range srcs {
					if coin(keys[s], uint64(slots[i])) < float64(ws[i]) {
						visit(f.s, u)
					}
				}
			case diffuse.LT:
				// One coin per (sample, vertex) selects at most one
				// in-edge, proportionally to the weights.
				t := coin(keys[s], uint64(p.m)+uint64(f.v))
				cum := 0.0
				for i, u := range srcs {
					cum += float64(ws[i])
					if t < cum {
						visit(f.s, u)
						break
					}
				}
			}
		}
		// Exchange cross-partition frontier items; each arrives at its
		// owner.
		incoming, err := mpi.AllToAll(st.c, outgoing)
		if err != nil {
			return err
		}
		for _, items := range incoming {
			for _, x := range items {
				visit(uint32(x), graph.Vertex(x>>32))
			}
		}
		// Global termination: any rank still active?
		active := []int64{int64(len(next))}
		if err := mpi.AllReduce(st.c, active, mpi.Sum); err != nil {
			return err
		}
		if active[0] == 0 {
			break
		}
	}
	// Commit the wave: every rank appends the batch in sample order. The
	// member-list sorts are the wave's residual CPU-bound work and are as
	// skewed as the sample sizes, so they run under work-stealing; the
	// appends stay sequential in sample order (the layout contract that
	// keeps shards identical across rank counts).
	par.Dynamic(batch, st.opt.Threads, 16, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			slices.Sort(members[s])
		}
	})
	for s := 0; s < batch; s++ {
		st.col.Append(members[s])
	}
	st.global += int64(batch)
	return nil
}

// Cover builds the local-shard index and runs the vertex-partitioned
// selection (imm.Samples; the final selection times its build via
// imm.FinalIndex).
func (st *partState) Cover(k int) (int64, error) {
	sel, err := st.selectSeeds(rrr.BuildIndex(st.col, st.opt.Threads), k)
	return sel.Covered, err
}

// selectSeeds is the vertex-partitioned Algorithm 4: the selection engine
// over partCoverage. On a collective failure the seeds chosen so far come
// back alongside the error.
func (st *partState) selectSeeds(idx *rrr.Index, k int) (*imm.QueryResult, error) {
	return imm.Greedy(&partCoverage{st: st, idx: idx}, st.part.n, imm.Query{K: k}, nil)
}

// partCoverage is the vertex-partitioned coverage backend. Every rank
// keeps the same dense global count column, so the engine's argmax is
// local and identical everywhere. Start gathers the ranks' owned intervals
// into that column, the one O(n) exchange of a selection. A purge moves
// only what it touches: the seed's owner — the one rank holding its
// incidence — broadcasts the matched sample ids, each rank decrements its
// own interval, and the ranks all-gather the (vertex, decrement) pairs
// they touched. The shard holds only owned members, so a sample's members
// are exactly the ones this rank decrements. Plain top-k only.
type partCoverage struct {
	st      *partState
	idx     *rrr.Index // over this rank's shard
	counts  []int64
	covered rrr.Bitset
	dec     []int32        // per owned vertex, zero between purges
	touched []graph.Vertex // owned vertices with a nonzero dec
	buf     []graph.Vertex // decode scratch of a coded shard
}

func (b *partCoverage) Start([]graph.Vertex) ([]int64, int64, error) {
	st, lo := b.st, b.st.part.lo
	// The index degree of an owned vertex is its population count: the
	// shard holds every sample's owned members.
	own := make([]int64, st.part.hi-lo)
	for i := range own {
		own[i] = b.idx.Degree(lo + graph.Vertex(i))
	}
	parts, err := mpi.AllGather(st.c, own)
	if err != nil {
		return nil, 0, err
	}
	b.counts = slices.Concat(parts...) // the intervals tile [0, n) in rank order
	b.dec = make([]int32, len(own))
	b.covered = rrr.NewBitset(int(st.global)) // every rank stores every sample
	return b.counts, st.global, nil
}

func (b *partCoverage) Purge(v graph.Vertex) (bool, error) {
	st, lo := b.st, b.st.part.lo
	root := owner(st.part.n, st.c.Size(), v)
	var matched []int64
	if root == st.c.Rank() {
		for _, j := range b.idx.SamplesOf(v) {
			if !b.covered.Get(int(j)) {
				matched = append(matched, int64(j))
			}
		}
	}
	matched, err := mpi.Broadcast(st.c, root, matched)
	if err != nil {
		return false, err
	}
	for _, j := range matched {
		b.covered.Set(int(j))
		var members []graph.Vertex
		if st.coded != nil {
			b.buf = st.coded.AppendMembers(int(j), b.buf[:0])
			members = b.buf
		} else {
			members = st.col.Sample(int(j))
		}
		for _, u := range members {
			if b.dec[u-lo]++; b.dec[u-lo] == 1 {
				b.touched = append(b.touched, u)
			}
		}
	}
	// A pair is the vertex above its decrement: 8 bytes on the wire.
	pairs := make([]int64, len(b.touched))
	for i, u := range b.touched {
		pairs[i] = int64(u)<<32 | int64(b.dec[u-lo])
		b.dec[u-lo] = 0
	}
	b.touched = b.touched[:0]
	all, err := mpi.AllGather(st.c, pairs)
	if err != nil {
		return false, err
	}
	for _, part := range all {
		for _, x := range part {
			b.counts[x>>32] -= x & math.MaxUint32
		}
	}
	return false, nil
}

func (b *partCoverage) End() {}

// String identifies the decomposition for logs.
func (r *PartResult) String() string {
	return fmt.Sprintf("partitioned IMM: %d ranks, own [%d,%d), theta %d, spread %.1f",
		r.Ranks, r.OwnedLo, r.OwnedHi, r.Theta, r.EstimatedSpread)
}
