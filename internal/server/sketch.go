package server

import (
	"fmt"
	"sync"
	"time"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
	"influmax/internal/rrr"
	"influmax/internal/trace"
)

// SketchKey identifies one sketch configuration: the graph (by content
// digest) and the sampling parameters theta was sized for. Two queries
// with equal keys are served from the same resident sketch.
type SketchKey struct {
	GraphDigest uint64
	Model       diffuse.Model
	Epsilon     float64
	KMax        int
	Seed        uint64
}

// String renders the key for logs and error messages.
func (k SketchKey) String() string {
	return fmt.Sprintf("graph=%016x model=%s eps=%g kmax=%d seed=%d",
		k.GraphDigest, k.Model, k.Epsilon, k.KMax, k.Seed)
}

// Sketch is a resident, immutable, query-ready RRR sample store plus the
// build bookkeeping that rides into per-query RunReports. Queries run on
// copy-on-read state, so one Sketch serves any number of them at once.
type Sketch struct {
	// Key identifies the configuration the sketch was sampled for.
	Key SketchKey
	// Col holds the theta byte-coded samples (DESIGN.md §13).
	Col *rrr.CodedCollection
	// Idx is the CSR vertex -> sample-ids inverted incidence of Col.
	Idx *rrr.Index
	// Theta is the sample count Algorithm 2 settled on.
	Theta int64
	// LowerBound is the martingale lower bound on OPT (zero when the
	// sketch was loaded from a snapshot, which does not persist it).
	LowerBound float64
	// Source records provenance: "sampled" (built in-process) or
	// "snapshot" (loaded from disk).
	Source string
	// BuildPhases is the wall-clock breakdown of building the sketch (all
	// zero for a snapshot load).
	BuildPhases trace.Times
	// Deltas is the replayable delta log since the base graph that
	// Key.GraphDigest names (nil for a static sketch), persisted by Save.
	Deltas []graph.Delta
	// DeltaEpoch and DeltaStats summarize the maintenance that produced
	// this sketch (zero for static sketches); they ride into RunReports.
	DeltaEpoch uint64
	DeltaStats imm.DeltaStats

	// rootsOnce/roots back Roots(): the per-sample root column, derived
	// lazily on the first audience-filtered query.
	rootsOnce sync.Once
	roots     []graph.Vertex

	// trajOnce/traj back trajectory(): the epoch's plain kMax run, built
	// on the first query it answers. A dynamic server publishes a new
	// Sketch per epoch, so a publish starts a fresh memo.
	trajOnce sync.Once
	traj     *imm.Trajectory
	trajErr  error
}

// Roots returns the per-sample root column — sample i's root is the first
// draw of its PerSample stream, a pure function of (seed, i, n) — derived
// lazily and cached. The column survives delta maintenance untouched:
// dynamic updates rebuild sample tails but never reseed the streams, so
// roots are invariant across epochs. Safe for concurrent callers.
func (s *Sketch) Roots() []graph.Vertex {
	s.rootsOnce.Do(func() {
		s.roots = imm.RootsRange(s.Key.Seed, 0, s.Col.Count(), s.Col.NumVertices(), 0)
	})
	return s.roots
}

// trajectory returns the sketch's plain greedy run to Key.KMax with p
// workers, running it on the first call (counted in builds) and keeping
// it. Only the serving path reads it: Query, QueryEx and
// imm.SelectSeedsSketch stay memo-free, the reference served answers are
// checked against. Safe for concurrent callers; they wait for one run.
func (s *Sketch) trajectory(p int, builds *metrics.Counter) (*imm.Trajectory, error) {
	s.trajOnce.Do(func() {
		builds.Inc()
		s.traj, s.trajErr = imm.NewTrajectory(s.coverage(nil, p), s.Col.NumVertices(), s.Key.KMax)
	})
	return s.traj, s.trajErr
}

// QueryEx runs the general query shapes of DESIGN.md §17 — budgeted,
// targeted, blocked, or any combination (a plain q reproduces Query
// byte-identically). Copy-on-read like Query: safe for any number of
// concurrent callers.
func (s *Sketch) QueryEx(q imm.Query, p int) (*imm.QueryResult, error) {
	if err := q.Validate(s.Col.NumVertices()); err != nil {
		return nil, err
	}
	return s.greedy(q, p, nil)
}

// greedy runs the selection engine over the sketch for a validated q;
// onSeed, when non-nil, sees each seed as it is committed (the streaming
// hook).
func (s *Sketch) greedy(q imm.Query, p int, onSeed func(int, graph.Vertex, int64)) (*imm.QueryResult, error) {
	return imm.Greedy(s.coverage(q.Audience, p), s.Col.NumVertices(), q, onSeed)
}

// coverage is the backend a selection over the sketch runs on: without
// an audience and on a sparse sketch (imm.PreferRecount) the recounting
// imm.IndexCoverage, which never decodes a sample; otherwise the
// decrementing imm.CodedCoverage. Both give the same answer.
func (s *Sketch) coverage(audience []graph.Vertex, p int) imm.Coverage[int32] {
	if len(audience) > 0 {
		return imm.NewCodedCoverage(s.Col, s.Idx, s.Roots(), p)
	}
	if imm.PreferRecount(s.Idx) {
		return imm.NewIndexCoverage(s.Idx)
	}
	return imm.NewCodedCoverage(s.Col, s.Idx, nil, p)
}

// Spread estimates the coverage of a caller-supplied seed set: how many
// of the sketch's samples (optionally restricted to audience-rooted ones)
// the set covers, and how many were eligible. The RIS estimate of the
// seed set's influence is n * covered / Col.Count().
func (s *Sketch) Spread(seeds, audience []graph.Vertex) (covered, eligible int64, err error) {
	var roots []graph.Vertex
	if len(audience) > 0 {
		roots = s.Roots()
	}
	return imm.CoverageOf(s.Col.Count(), s.Idx, roots, seeds, audience)
}

// BuildSketch samples a sketch for key over g: imm.DrawCoded at K =
// key.KMax draws the samples and their index, with the samples coded into
// the store selected by store (imm.StoreCoded adds the frequency-ordered
// relabeling). Seeds are selected only when a query asks. Builds run in
// PerSample RNG mode, so workers does not change the samples, and store
// does not change the query seeds.
func BuildSketch(g *graph.Graph, key SketchKey, workers int, store imm.StoreKind, reg *metrics.Registry) (*Sketch, error) {
	opt := imm.Options{
		K: key.KMax, Epsilon: key.Epsilon, Model: key.Model,
		Workers: workers, Seed: key.Seed, Store: store, Metrics: reg,
	}
	res, coded, idx, err := imm.DrawCoded(g, opt)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		reg.Gauge("rrr/store-bytes").Set(coded.Bytes())
		reg.Gauge("rrr/index-bytes").Set(idx.Bytes())
	}
	return &Sketch{
		Key:         key,
		Col:         coded,
		Idx:         idx,
		Theta:       res.Theta,
		LowerBound:  res.LowerBound,
		Source:      "sampled",
		BuildPhases: res.Phases,
	}, nil
}

// Query runs indexed greedy selection for k seeds over the sketch with p
// workers, returning the seeds in selection order and the number of
// samples they cover. Byte-identical to a fresh imm selection at the same
// k over the same samples, for any worker count, and safe for any number
// of concurrent callers.
func (s *Sketch) Query(k, p int) ([]graph.Vertex, int64) {
	return imm.SelectSeedsSketch(s.Col, s.Idx, k, p)
}

// Store reports the store kind the sketch's collection is coded under.
func (s *Sketch) Store() imm.StoreKind {
	if s.Col.Relabeled() {
		return imm.StoreCoded
	}
	return imm.StoreFlat
}

// Meta returns the snapshot meta block identifying this sketch.
func (s *Sketch) Meta() rrr.SnapshotMeta {
	return rrr.SnapshotMeta{
		GraphDigest: s.Key.GraphDigest,
		Model:       uint8(s.Key.Model),
		Epsilon:     s.Key.Epsilon,
		KMax:        s.Key.KMax,
		Seed:        s.Key.Seed,
		Theta:       s.Theta,
	}
}

// Save persists the sketch (samples + index + delta log) at path in the
// versioned, checksummed snapshot format, atomically.
func (s *Sketch) Save(path string) error {
	return rrr.SaveSnapshotFile(path, s.Meta(), s.Col, s.Idx, s.Deltas)
}

// LoadSketch reads a snapshot from path and validates it against g (the
// graph digest must match). A snapshot written under the other labeling
// than store is transcoded once at load time (the index is
// label-invariant); one written without an index gets it rebuilt.
// maxBytes <= 0 uses rrr.DefaultMaxSnapshotBytes.
func LoadSketch(path string, g *graph.Graph, workers int, store imm.StoreKind, maxBytes int64) (*Sketch, error) {
	start := time.Now()
	meta, col, idx, deltas, err := rrr.LoadSnapshotFile(path, maxBytes)
	if err != nil {
		return nil, err
	}
	if got := g.Digest(); meta.GraphDigest != got {
		return nil, fmt.Errorf("server: snapshot %s was sampled from graph %016x, loaded graph is %016x",
			path, meta.GraphDigest, got)
	}
	if col.NumVertices() != g.NumVertices() {
		return nil, fmt.Errorf("server: snapshot %s covers %d vertices, graph has %d",
			path, col.NumVertices(), g.NumVertices())
	}
	if meta.KMax < 1 {
		return nil, fmt.Errorf("server: snapshot %s has kMax %d", path, meta.KMax)
	}
	if wantCoded := store == imm.StoreCoded; wantCoded != col.Relabeled() {
		// Cross-load: re-express every sample under the labeling this
		// server runs. The relabel table for the coded direction is rebuilt
		// from the samples' own incidence frequencies — the same table the
		// sampling path would have produced, since it is a pure function of
		// the sample set.
		var relab *rrr.Relabeling
		if wantCoded {
			freq := make([]int32, col.NumVertices())
			col.CountAll(freq, nil)
			relab = rrr.NewRelabeling(freq)
		}
		col = col.Recode(relab)
	}
	s := &Sketch{
		Key: SketchKey{
			GraphDigest: meta.GraphDigest,
			Model:       diffuse.Model(meta.Model),
			Epsilon:     meta.Epsilon,
			KMax:        meta.KMax,
			Seed:        meta.Seed,
		},
		Col:        col,
		Idx:        idx,
		Theta:      meta.Theta,
		Source:     "snapshot",
		Deltas:     deltas,
		DeltaEpoch: uint64(len(deltas)),
	}
	if s.Idx == nil {
		s.Idx = rrr.BuildIndexCoded(col, workers)
	}
	// The load itself is accounted to Other; estimation/sampling stay
	// zero — the warm start the snapshot exists for.
	s.BuildPhases.Add(trace.Other, time.Since(start))
	return s, nil
}

// report assembles the per-query RunReport: the sketch's build breakdown
// (zero sampling for a snapshot warm-start) plus this query's selection
// time and outcome.
func (s *Sketch) report(k, workers int, selectDur time.Duration, seeds []graph.Vertex, covered int64) *metrics.RunReport {
	phases := s.BuildPhases
	phases.Add(trace.SelectSeeds, selectDur)
	rep := metrics.NewRunReport("IMMserve", phases)
	rep.Model = s.Key.Model.String()
	rep.K = k
	rep.Epsilon = s.Key.Epsilon
	rep.Seed = s.Key.Seed
	rep.Workers = workers
	rep.Theta = s.Theta
	rep.SamplesGenerated = int64(s.Col.Count())
	rep.LowerBound = s.LowerBound
	rep.Seeds = seeds
	if c := s.Col.Count(); c > 0 {
		rep.CoverageFraction = float64(covered) / float64(c)
	}
	rep.EstimatedSpread = rep.CoverageFraction * float64(s.Col.NumVertices())
	rep.Store = s.Store().String()
	rep.StoreBytes = s.Col.Bytes()
	rep.FlatStoreBytes = s.Col.FlatBytes()
	rep.IndexBytes = s.Idx.Bytes()
	rep.DeltaEpoch = s.DeltaEpoch
	rep.DeltasApplied = s.DeltaStats.DeltasApplied
	rep.SamplesInvalidated = s.DeltaStats.SamplesInvalidated
	return rep
}
