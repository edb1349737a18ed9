package dist

import (
	"errors"
	"fmt"
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

// Options configures a distributed IMM run. All ranks must pass identical
// options.
type Options struct {
	// K is the seed-set cardinality.
	K int
	// Epsilon is the accuracy parameter in (0, 1).
	Epsilon float64
	// Model is the diffusion model.
	Model diffuse.Model
	// ThreadsPerRank is the intra-rank thread count (<= 0: GOMAXPROCS/size,
	// at least 1) — the OpenMP half of the hybrid model.
	ThreadsPerRank int
	// Seed feeds the pseudorandom streams; must agree across ranks.
	Seed uint64
	// RNG selects the stream discipline (imm.PerSample reproduces the
	// exact same result for any rank count; imm.LeapFrog mirrors the
	// paper). It also selects the intra-rank engine, as in imm.Options:
	// the fused kernel under work-stealing for PerSample, the scalar
	// kernel on the static split for LeapFrog.
	RNG imm.RNGMode
	// L is the confidence exponent (0 means 1).
	L float64
}

// Result reports a distributed run; all ranks return identical seed sets.
type Result struct {
	// Seeds is the selected seed set in greedy order.
	Seeds []graph.Vertex
	// CoverageFraction is the global F_R(S).
	CoverageFraction float64
	// EstimatedSpread is n * F_R(S).
	EstimatedSpread float64
	// Theta is the sample count the estimation deemed sufficient.
	Theta int64
	// SamplesGenerated is the global number of samples generated.
	SamplesGenerated int64
	// LocalSamples is the number held by this rank.
	LocalSamples int
	// LowerBound is the martingale lower bound on OPT.
	LowerBound float64
	// StoreBytes is this rank's RRR store footprint: its shard in the
	// flat arena the final selection ran over.
	StoreBytes int64
	// IndexBytes is this rank's inverted-incidence index footprint (the
	// transient lookup structure of the final seed selection).
	IndexBytes int64
	// LocalWork is this rank's sampling work (total stored RRR entries),
	// the quantity whose balance across ranks determines strong-scaling
	// efficiency on real hardware.
	LocalWork int64
	// Phases is this rank's wall-clock phase breakdown.
	Phases trace.Times
	// Ranks is the communicator size and Rank this endpoint's rank.
	Ranks int
	Rank  int
	// ThreadsPerRank is the resolved intra-rank thread count.
	ThreadsPerRank int
	// CommStats is this rank's transport/fault-injection counter snapshot.
	CommStats mpi.CommStats
	// FailedRank is the peer this rank blames for a degraded run (-1 when
	// the run completed cleanly). When >= 0 the Result is partial: Run
	// returned it together with a RankFailedError, and Seeds holds only
	// the seeds selected before the failure.
	FailedRank int
}

// state carries the per-rank machinery across phases.
type state struct {
	c       mpi.Comm
	g       *graph.Graph
	col     *rrr.Collection
	idx     *rrr.Index // the shard's incidence index, extended by each Cover
	global  int64      // samples generated across all ranks so far
	threads int

	sampler *imm.BatchSampler // intra-rank multithreaded sampling machinery
}

// Run executes IMMdist over the communicator. Every rank must call Run
// with the same graph and options; the identical seed set is returned on
// every rank.
func Run(c mpi.Comm, g *graph.Graph, opt Options) (*Result, error) {
	res, _, err := run(c, g, opt)
	return res, err
}

// run is Run, also returning the rank's final state: its shard and the
// shard's index.
func run(c mpi.Comm, g *graph.Graph, opt Options) (*Result, *state, error) {
	if opt.L == 0 {
		opt.L = 1
	}
	if opt.ThreadsPerRank <= 0 {
		opt.ThreadsPerRank = max(par.DefaultWorkers()/c.Size(), 1)
	}
	if err := validate(opt.K, opt.Epsilon, g.NumVertices()); err != nil {
		return nil, nil, err
	}

	res := &Result{Ranks: c.Size(), Rank: c.Rank(), ThreadsPerRank: opt.ThreadsPerRank, FailedRank: -1}
	startOther := time.Now()
	st := &state{
		c: c, g: g,
		col:     rrr.NewCollection(g.NumVertices()),
		threads: opt.ThreadsPerRank,
	}
	st.sampler = imm.NewBatchSampler(g, imm.Options{
		Model: opt.Model, Workers: st.threads, Seed: opt.Seed, RNG: opt.RNG,
	})
	if opt.RNG == imm.LeapFrog {
		// One global sequence split across size*threads consumers: the
		// leap-frog stride is the total thread count of the job, so the
		// intra-process substreams NewBatchSampler built are replaced by
		// this rank's slice of the job-wide split (rank-major,
		// thread-minor). Pinned streams force the static schedule.
		base := rng.NewLCG(opt.Seed)
		total := c.Size() * st.threads
		streams := make([]*rng.Rand, st.threads)
		for tid := range streams {
			streams[tid] = rng.New(base.LeapFrog(c.Rank()*st.threads+tid, total))
		}
		st.sampler.SetStreams(streams)
	}
	tm := imm.NewAnalysis(g.NumVertices(), opt.K, opt.Epsilon, opt.L)
	res.Phases.Add(trace.Other, time.Since(startOther))

	// finish stamps the rank-local bookkeeping; it runs on the clean path
	// and on degraded exits alike, so a partial Result still reports the
	// shard this rank holds.
	finish := func() {
		res.SamplesGenerated = st.global
		res.LocalSamples = st.col.Count()
		res.StoreBytes = st.col.Bytes()
		res.LocalWork = st.col.TotalSize()
		res.CommStats = mpi.StatsOf(c)
	}
	// degraded converts a rank failure into a partial-result-with-error
	// report: the surviving rank's shard counters and any seeds already
	// selected stay available to the caller alongside the typed error.
	// Non-rank failures stay fatal.
	degraded := func(err error) (*Result, *state, error) {
		var rf *mpi.RankFailedError
		if !errors.As(err, &rf) {
			return nil, nil, err
		}
		res.FailedRank = rf.Rank
		finish()
		return res, st, err
	}

	// Phases 1-2: distributed EstimateTheta and Sample. st extends the
	// sample set without a collective; only its selections reduce.
	var err error
	if res.Theta, res.LowerBound, err = imm.Estimate(st, tm, opt.K, &res.Phases); err != nil {
		return degraded(err)
	}

	// Final index: the shard's index extended over its share of the final
	// draw. Each rank selects on its flat shard, as the paper does.
	res.Phases.Measure(trace.IndexBuild, func() { st.idx = rrr.ExtendIndex(st.idx, st.col, st.threads) })
	res.IndexBytes = st.idx.Bytes()

	// Phase 3: distributed SelectSeeds. On a rank failure the seeds
	// selected before the collective broke are kept — the partial result.
	var sel *imm.QueryResult
	res.Phases.Measure(trace.SelectSeeds, func() { sel, err = st.selectSeeds(opt.K) })
	res.Seeds = sel.Seeds
	res.CoverageFraction = float64(sel.Covered) / float64(st.global)
	res.EstimatedSpread = res.CoverageFraction * tm.N()
	if err != nil {
		return degraded(err)
	}

	finish()
	return res, st, nil
}

func validate(k int, eps float64, n int) error {
	if n < 2 {
		return fmt.Errorf("dist: graph must have at least 2 vertices")
	}
	if k < 1 || k > n {
		return fmt.Errorf("dist: k = %d out of [1, %d]", k, n)
	}
	if eps <= 0 || eps >= 1 {
		return fmt.Errorf("dist: epsilon = %v out of (0, 1)", eps)
	}
	return nil
}

// Extend generates count samples globally (imm.Samples): rank r generates
// the contiguous sub-batch Interval(count, p, r), multithreaded within the
// rank by the shared batch sampler. Sample identities are the global
// indices st.global + i, so in PerSample mode the union of all ranks'
// samples is independent of p — and of the intra-rank schedule. Every rank
// knows the global total without a collective.
func (st *state) Extend(count int64) (int64, error) {
	if count <= 0 {
		return st.global, nil
	}
	lo, hi := par.Interval(int(count), st.c.Size(), st.c.Rank())
	if local := hi - lo; local > 0 {
		st.sampler.SampleAt(st.col, uint64(st.global+int64(lo)), local)
		st.sampler.Release()
	}
	st.global += count
	return st.global, nil
}

// Cover extends the local shard's index over the samples drawn since the
// last Cover and runs the distributed selection (imm.Samples).
func (st *state) Cover(k int) (int64, error) {
	st.idx = rrr.ExtendIndex(st.idx, st.col, st.threads)
	sel, err := st.selectSeeds(k)
	return sel.Covered, err
}

// selectSeeds is the distributed Algorithm 4: the selection engine over an
// AllReduce of this rank's shard counts, so every rank runs the identical
// argmax. On a collective failure the seeds chosen so far come back
// alongside the error.
func (st *state) selectSeeds(k int) (*imm.QueryResult, error) {
	local := imm.NewFlatCoverage(st.col, st.idx, nil, st.threads)
	return imm.Greedy(&allReduceCoverage{c: st.c, local: local}, st.g.NumVertices(), imm.Query{K: k}, nil)
}

// allReduceCoverage is the sample-partitioned coverage backend: the local
// backend keeps this rank's shard counts (and does the purge work,
// multithreaded), and the global counts are their sum over all ranks,
// re-reduced after every purge. Sums of integers are exact in any order, so
// the global counts equal a single process's over the union of the shards.
// dist selects plain top-k only; eligible stays this rank's share.
type allReduceCoverage struct {
	c      mpi.Comm
	local  imm.Coverage[int32]
	shard  []int32 // the local backend's counts
	global []int64
}

func (a *allReduceCoverage) Start(audience []graph.Vertex) ([]int64, int64, error) {
	shard, eligible, err := a.local.Start(audience)
	if err != nil {
		return nil, 0, err
	}
	a.shard, a.global = shard, make([]int64, len(shard))
	return a.global, eligible, a.reduce()
}

func (a *allReduceCoverage) Purge(v graph.Vertex) (bool, error) {
	if _, err := a.local.Purge(v); err != nil {
		return false, err
	}
	return false, a.reduce()
}

func (a *allReduceCoverage) End() { a.local.End() }

// reduce refreshes the global counts from every rank's shard counts.
func (a *allReduceCoverage) reduce() error {
	for v, c := range a.shard {
		a.global[v] = int64(c)
	}
	return mpi.AllReduce(a.c, a.global)
}
