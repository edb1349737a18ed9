package imm

import (
	"errors"
	"fmt"
	"slices"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/metrics"
	"influmax/internal/par"
	"influmax/internal/rrr"
)

// Incremental RRR maintenance over dynamic graphs (DESIGN.md §15).
//
// The invariant that makes cheap maintenance possible is a property of the
// reverse sampling kernels: a reverse traversal examines the in-edges of a
// vertex v only while visiting v, so a sample that does not contain v
// never drew a coin on any edge into v. A delta op targeting v therefore
// affects exactly the samples whose membership includes v — located in
// O(degree) through the inverted incidence index — and every other sample
// is, byte for byte, what a cold traversal of the mutated graph draws.
//
// Every affected sample is regenerated from scratch on the mutated graph
// with its original per-sample stream: Reseed(seed, id) reproduces the
// root draw, so the result is byte-identical to what a cold build at the
// same theta produces for that id. The maintained sketch at epoch e is
// therefore exactly a cold build over the epoch-e graph at the pinned
// theta, for every model and weight policy, and maintenance is
// deterministic across worker counts and schedules.

// WeightPolicy declares how edge weights behave under deltas: whether
// each batch re-derives them or keeps the weights the ops carry.
type WeightPolicy uint8

const (
	// WeightsExplicit: every delta op carries its own weight and existing
	// weights never move.
	WeightsExplicit WeightPolicy = iota
	// WeightsWC: weights are re-derived as w(u,v) = 1/indeg(v) after every
	// batch (the weighted-cascade scheme), so any op at v reshapes all of
	// v's in-coins.
	WeightsWC
)

// String names the policy, matching the immserve -weight-policy values.
func (p WeightPolicy) String() string {
	switch p {
	case WeightsExplicit:
		return "explicit"
	case WeightsWC:
		return "wc"
	}
	return fmt.Sprintf("WeightPolicy(%d)", uint8(p))
}

// ParseWeightPolicy parses the -weight-policy flag values.
func ParseWeightPolicy(s string) (WeightPolicy, error) {
	switch s {
	case "explicit":
		return WeightsExplicit, nil
	case "wc":
		return WeightsWC, nil
	}
	return 0, fmt.Errorf("imm: unknown weight policy %q (want explicit or wc)", s)
}

// DeltaStats accumulates maintenance telemetry across a sketch's lifetime;
// the two rrr/ counters mirror it into the metrics registry.
type DeltaStats struct {
	// DeltasApplied is the total number of edge ops applied.
	DeltasApplied int64
	// Batches is the number of ApplyDelta calls that mutated the sketch.
	Batches int64
	// SamplesInvalidated is the number of samples regenerated from scratch.
	SamplesInvalidated int64
}

// BatchResult reports one ApplyDelta call.
type BatchResult struct {
	// Epoch is the sketch epoch after the batch (one per applied batch).
	Epoch uint64
	// Ops is the number of edge ops in the batch.
	Ops int
	// Candidates is the number of samples whose membership included an op
	// target whose in-list the batch changed in sources or weights (the
	// repair working set); a batch that nets to no change, like an insert
	// then delete of one edge, has none. Every candidate is regenerated,
	// so it always equals SamplesInvalidated.
	Candidates int
	// SamplesInvalidated is the number of samples this batch regenerated,
	// always Candidates. Both are kept because the delta response and the
	// benchmark report each.
	SamplesInvalidated int64
}

// DynamicSketch is a resident RRR sketch that tracks a mutating graph:
// ApplyDelta folds a batch of edge ops into the graph and repairs exactly
// the affected samples, keeping theta pinned at its build-time value (the
// bounded-staleness contract — see DESIGN.md §15 for when to rebuild).
// Methods are not concurrency-safe; the serving layer serializes
// ApplyDelta and snapshots immutable views for queries.
type DynamicSketch struct {
	g      *graph.Graph
	opt    Options
	policy WeightPolicy

	col   *rrr.Collection
	idx   *rrr.Index
	theta int64
	lower float64

	// shared is the fused kernel's tables over g, kept in step with it
	// batch by batch (nil until the first batch).
	shared *diffuse.FusedShared

	epoch uint64
	log   []graph.Delta
	stats DeltaStats

	mApplied, mInvalidated *metrics.Counter
}

// checkDynamic rejects what a dynamic sketch cannot maintain; both
// constructors call it, so a restored sketch accepts exactly the options
// and policies a fresh build does.
func checkDynamic(opt Options, policy WeightPolicy) error {
	if opt.RNG != PerSample {
		return errors.New("imm: dynamic sketches require the per-sample RNG mode")
	}
	if policy > WeightsWC {
		return fmt.Errorf("imm: unknown weight policy %d", uint8(policy))
	}
	return nil
}

// NewDynamicSketch builds the initial sketch over g with a full IMM run
// (flat store; maintenance needs the mutable arena). opt.RNG must be
// PerSample — the per-sample stream discipline is what regeneration
// replays — and LeapFrog mode is rejected.
func NewDynamicSketch(g *graph.Graph, opt Options, policy WeightPolicy) (*DynamicSketch, *Result, error) {
	opt = opt.withDefaults()
	if err := checkDynamic(opt, policy); err != nil {
		return nil, nil, err
	}
	res, col, idx, err := RunCollect(g, opt)
	if err != nil {
		return nil, nil, err
	}
	s := &DynamicSketch{
		g: g, opt: opt, policy: policy,
		col: col, idx: idx,
		theta: res.Theta, lower: res.LowerBound,
	}
	s.bindMetrics()
	return s, res, nil
}

// RestoreDynamicSketch rebuilds a dynamic sketch from persisted state: the
// base graph (weights as originally assigned), the post-delta sample
// collection, the pinned theta and the delta log. The log is replayed
// batch-by-batch — weight re-derivation (weighted cascade, LT
// normalization) is per-batch, so replaying one concatenated batch would
// not reproduce the live weights. The invalidation counter restarts at
// zero; the epoch resumes at the batch count.
func RestoreDynamicSketch(base *graph.Graph, opt Options, policy WeightPolicy,
	col *rrr.Collection, theta int64, log []graph.Delta) (*DynamicSketch, error) {
	opt = opt.withDefaults()
	if err := checkDynamic(opt, policy); err != nil {
		return nil, err
	}
	if col.NumVertices() != base.NumVertices() {
		return nil, fmt.Errorf("imm: collection over %d vertices, graph has %d",
			col.NumVertices(), base.NumVertices())
	}
	g := base
	for i, d := range log {
		ov := graph.NewOverlay(g)
		if err := ov.Apply(d); err != nil {
			return nil, fmt.Errorf("imm: delta log batch %d: %w", i, err)
		}
		g = ov.Compact()
		reweight(g, opt, policy)
	}
	s := &DynamicSketch{
		g: g, opt: opt, policy: policy,
		col: col, idx: rrr.BuildIndex(col, opt.Workers),
		theta: theta,
		epoch: uint64(len(log)),
		log:   append([]graph.Delta(nil), log...),
	}
	s.stats.Batches = int64(len(log))
	for _, d := range log {
		s.stats.DeltasApplied += int64(len(d))
	}
	s.bindMetrics()
	return s, nil
}

func (s *DynamicSketch) bindMetrics() {
	if s.opt.Metrics == nil {
		return
	}
	s.mApplied = s.opt.Metrics.Counter("rrr/deltas-applied")
	s.mInvalidated = s.opt.Metrics.Counter("rrr/samples-invalidated")
}

// reweight re-derives scheme-dependent weights on a freshly compacted
// graph: the weighted-cascade policy recomputes 1/indeg, and the LT model
// re-normalizes any vertex whose in-weights now sum past 1.
func reweight(g *graph.Graph, opt Options, policy WeightPolicy) {
	if policy == WeightsWC {
		g.AssignWeightedCascade()
	}
	if opt.Model == diffuse.LT {
		g.NormalizeLT()
	}
}

// Graph returns the current (post-delta) graph. Immutable by convention.
func (s *DynamicSketch) Graph() *graph.Graph { return s.g }

// Collection returns the maintained sample collection. Immutable by
// convention: ApplyDelta replaces it rather than mutating in place, so a
// caller holding the old pointer keeps a consistent pre-batch view.
func (s *DynamicSketch) Collection() *rrr.Collection { return s.col }

// Index returns the incidence index over Collection. Same immutability
// convention.
func (s *DynamicSketch) Index() *rrr.Index { return s.idx }

// Theta returns the pinned sample count from the initial build.
func (s *DynamicSketch) Theta() int64 { return s.theta }

// LowerBound returns the initial build's martingale lower bound (zero for
// restored sketches).
func (s *DynamicSketch) LowerBound() float64 { return s.lower }

// Epoch returns the number of delta batches folded in so far.
func (s *DynamicSketch) Epoch() uint64 { return s.epoch }

// Stats returns cumulative maintenance telemetry.
func (s *DynamicSketch) Stats() DeltaStats { return s.stats }

// Options returns the resolved build options.
func (s *DynamicSketch) Options() Options { return s.opt }

// Log returns the applied delta batches in order (aliases internal
// storage; treat as read-only). Persisted into the v3 snapshot so warm
// restarts replay it.
func (s *DynamicSketch) Log() []graph.Delta { return s.log }

// ApplyDelta folds one batch of edge ops into the sketch: mutate the graph
// (overlay + compact + reweight), regenerate exactly the samples whose
// membership includes an op target whose in-list changed, patch the
// incidence index, and append the batch to the replay log. On a validation error the sketch is
// unchanged and the error is a *graph.DeltaError identifying the op.
// An empty batch is a no-op.
func (s *DynamicSketch) ApplyDelta(d graph.Delta) (BatchResult, error) {
	if len(d) == 0 {
		return BatchResult{Epoch: s.epoch}, nil
	}
	ov := graph.NewOverlay(s.g)
	if err := ov.Apply(d); err != nil {
		return BatchResult{}, err
	}
	ng := ov.Compact()
	reweight(ng, s.opt, s.policy)
	// Only an op target's in-list (and so its coins) can change, and only
	// if the batch leaves it different in sources or weights: an insert
	// then delete of one edge nets to nothing, and an unchanged in-list
	// draws the same coins.
	changed := make([]bool, ng.NumVertices())
	var targets []graph.Vertex
	for _, op := range d {
		if v := op.Dst; !changed[v] && inListChanged(s.g, ng, v) {
			changed[v] = true
			targets = append(targets, v)
		}
	}
	s.shared = s.shared.Rebind(s.g, ng, s.opt.Model, changed)

	// The repair working set: samples whose membership includes a changed
	// target. Each of them visited a changed in-list, so each is redrawn.
	var cands []int32
	for _, v := range targets {
		cands = append(cands, s.idx.SamplesOf(v)...)
	}
	slices.Sort(cands)
	cands = slices.Compact(cands)
	if len(cands) > 0 {
		s.repair(ng, cands)
	}

	s.g = ng
	s.epoch++
	s.log = append(s.log, append(graph.Delta(nil), d...))
	res := BatchResult{Epoch: s.epoch, Ops: len(d), Candidates: len(cands), SamplesInvalidated: int64(len(cands))}
	s.stats.DeltasApplied += int64(len(d))
	s.stats.Batches++
	s.stats.SamplesInvalidated += res.SamplesInvalidated
	if s.mApplied != nil {
		s.mApplied.Add(int64(len(d)))
		s.mInvalidated.Add(res.SamplesInvalidated)
	}
	return res, nil
}

// inListChanged reports whether v's in-list differs between prev and ng
// in sources or weights, slot by slot.
func inListChanged(prev, ng *graph.Graph, v graph.Vertex) bool {
	ps, pw := prev.InNeighbors(v)
	ns, nw := ng.InNeighbors(v)
	return !slices.Equal(ps, ns) || !slices.Equal(pw, nw)
}

// repair regenerates the candidate samples (sorted ids) on the mutated
// graph ng and swaps the repaired collection + index in. Each id is redrawn
// with its original stream on the fused kernel over s.shared: 64-lane
// batches of ids handed out by work stealing, since regeneration cost is
// as skewed as cold sampling's. The stitched collection is identical at
// any worker count.
func (s *DynamicSketch) repair(ng *graph.Graph, cands []int32) {
	fresh := make([][]graph.Vertex, len(cands))
	fused := make([]*diffuse.FusedSampler, s.opt.Workers)
	batches := (len(cands) + diffuse.MaxLanes - 1) / diffuse.MaxLanes
	par.Dynamic(batches, s.opt.Workers, 1, func(rank, lo, hi int) {
		if fused[rank] == nil {
			fused[rank] = diffuse.NewFusedSamplerShared(ng, s.opt.Model, s.shared)
		}
		first := lo * diffuse.MaxLanes
		ids := cands[first:min(hi*diffuse.MaxLanes, len(cands))]
		verts, sizes := fused[rank].GenerateIDs(s.opt.Seed, ids, nil, nil)
		for i, sz := range sizes {
			fresh[first+i], verts = verts[:sz], verts[sz:]
		}
	})

	ncol := rrr.NewCollection(ng.NumVertices())
	ncol.Reserve(s.col.Count(), s.col.TotalSize())
	ci := 0
	for id := 0; id < s.col.Count(); id++ {
		if ci < len(cands) && int(cands[ci]) == id {
			ncol.Append(fresh[ci])
			ci++
			continue
		}
		ncol.Append(s.col.Sample(id))
	}
	// Patch the incidence index instead of rebuilding: only the
	// regenerated samples' memberships moved, and a full rebuild's fixed
	// navigation cost (every worker walks all theta samples twice) would
	// dwarf the actual repair work of a small batch.
	s.idx = rrr.PatchIndex(s.idx, s.col, ncol, cands, s.opt.Workers)
	s.col = ncol
}
