package imm

import (
	"errors"
	"fmt"
	"slices"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/metrics"
	"influmax/internal/par"
	"influmax/internal/rng"
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
// remains a valid draw from the mutated graph's distribution untouched.
//
// Affected samples are repaired two ways:
//
//   - Invalidation. If the op deletes an edge, or changes the coin
//     distribution of v's whole in-list (weighted-cascade policy, where
//     1/indeg(v) moves for every in-edge, or the LT model, where the
//     single-edge selection at v is a function of all in-weights), the
//     sample is regenerated from scratch on the mutated graph with its
//     original per-sample stream: Reseed(seed, id) reproduces the root
//     draw, so the result is byte-identical to what a cold build at the
//     same theta would produce for that id.
//
//   - Extension. An IC-model insertion under explicit weights leaves every
//     existing coin's distribution intact — the new edge only adds one
//     more coin. The sample is extended in place: flip the new edge's coin
//     from a fresh per-(sample, epoch) stream and, on success, continue
//     the reverse BFS from the inserted source over vertices not yet in
//     the sample.
//
// Both repairs are pure functions of (sample id, epoch), so maintenance is
// deterministic across worker counts and schedules, exactly like PerSample
// cold sampling.

// WeightPolicy declares how edge weights behave under deltas, which
// decides whether insertions can extend samples or must invalidate them.
type WeightPolicy uint8

const (
	// WeightsExplicit: every delta op carries its own weight and existing
	// weights never move. IC insertions extend affected samples in place.
	WeightsExplicit WeightPolicy = iota
	// WeightsWC: weights are re-derived as w(u,v) = 1/indeg(v) after every
	// batch (the weighted-cascade scheme), so any op at v reshapes all of
	// v's in-coins and every affected sample is invalidated.
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
// the three rrr/ counters mirror it into the metrics registry.
type DeltaStats struct {
	// DeltasApplied is the total number of edge ops applied.
	DeltasApplied int64
	// Batches is the number of ApplyDelta calls that mutated the sketch.
	Batches int64
	// SamplesInvalidated is the number of samples regenerated from scratch.
	SamplesInvalidated int64
	// SamplesExtended is the number of samples extended in place.
	SamplesExtended int64
}

// BatchResult reports one ApplyDelta call.
type BatchResult struct {
	// Epoch is the sketch epoch after the batch (one per applied batch).
	Epoch uint64
	// Ops is the number of edge ops in the batch.
	Ops int
	// Candidates is the number of samples whose membership included an op
	// target (the repair working set).
	Candidates int
	// SamplesInvalidated and SamplesExtended are this batch's repairs.
	SamplesInvalidated int64
	// SamplesExtended is the number of samples extended in place.
	SamplesExtended int64
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

	mApplied, mInvalidated, mExtended *metrics.Counter
}

// NewDynamicSketch builds the initial sketch over g with a full IMM run
// (flat store; maintenance needs the mutable arena). opt.RNG must be
// PerSample — the per-sample stream discipline is what regeneration
// replays — and LeapFrog mode is rejected.
func NewDynamicSketch(g *graph.Graph, opt Options, policy WeightPolicy) (*DynamicSketch, *Result, error) {
	opt = opt.withDefaults()
	if opt.RNG != PerSample {
		return nil, nil, errors.New("imm: dynamic sketches require the per-sample RNG mode")
	}
	if policy > WeightsWC {
		return nil, nil, fmt.Errorf("imm: unknown weight policy %d", uint8(policy))
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
// not reproduce the live weights. Repair counters restart at zero; epoch
// resumes at the batch count so extension streams keep advancing.
func RestoreDynamicSketch(base *graph.Graph, opt Options, policy WeightPolicy,
	col *rrr.Collection, theta int64, log []graph.Delta) (*DynamicSketch, error) {
	opt = opt.withDefaults()
	if opt.RNG != PerSample {
		return nil, errors.New("imm: dynamic sketches require the per-sample RNG mode")
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
	s.mExtended = s.opt.Metrics.Counter("rrr/samples-extended")
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

// Policy returns the weight policy.
func (s *DynamicSketch) Policy() WeightPolicy { return s.policy }

// Log returns the applied delta batches in order (aliases internal
// storage; treat as read-only). Persisted into the v3 snapshot so warm
// restarts replay it.
func (s *DynamicSketch) Log() []graph.Delta { return s.log }

// Query runs the indexed greedy over the maintained sketch, returning the
// seed set and the number of samples it covers.
func (s *DynamicSketch) Query(k, workers int) ([]graph.Vertex, int64) {
	if workers <= 0 {
		workers = s.opt.Workers
	}
	return SelectSeedsIndexed(s.col, s.idx, k, workers)
}

// extensionSeed derives the seed of the per-sample extension streams for
// one epoch: independent of the build streams (which Reseed(opt.Seed, id)
// replays) and of every other epoch's extensions.
func extensionSeed(seed, epoch uint64) uint64 {
	return rng.Mix64(seed ^ rng.Mix64(epoch+0x9E3779B97F4A7C15))
}

// deltaWorker is one repair worker's op-walk scratch, rebuilt per batch
// (it binds the new graph).
type deltaWorker struct {
	g      *graph.Graph // the post-batch compacted graph
	gen    *rng.SplitMix64
	stream *rng.Rand

	member []uint32 // epoch-stamped membership of the sample being repaired
	stamp  uint32
	queue  []graph.Vertex
	buf    []graph.Vertex
	exam   []bool // per batch-op: coin already drawn during an extension BFS
}

func (w *deltaWorker) nextStamp() {
	w.stamp++
	if w.stamp == 0 {
		clear(w.member)
		w.stamp = 1
	}
}

// ApplyDelta folds one batch of edge ops into the sketch: mutate the graph
// (overlay + compact + reweight), repair exactly the samples whose
// membership includes an op target, rebuild the incidence index, and
// append the batch to the replay log. On a validation error the sketch is
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
	// Only the op targets' in-lists (and so their coins) changed.
	changed := make([]bool, ng.NumVertices())
	for _, op := range d {
		changed[op.Dst] = true
	}
	s.shared = s.shared.Rebind(s.g, ng, s.opt.Model, changed)

	// An op invalidates affected samples unless it is an IC insertion
	// under explicit weights (the only case where existing coins keep
	// their distribution and the sample can be extended instead).
	invalidateAll := s.policy == WeightsWC || s.opt.Model == diffuse.LT
	invalidates := func(op graph.DeltaOp) bool {
		return invalidateAll || op.Kind == graph.DeltaDelete
	}

	// The repair working set: samples whose pre-batch membership includes
	// any op target. Mid-batch extensions can only add an op target to a
	// sample that already contained an earlier op's target, so the
	// pre-batch union is complete.
	var cands []int32
	for _, op := range d {
		cands = append(cands, s.idx.SamplesOf(op.Dst)...)
	}
	slices.Sort(cands)
	cands = slices.Compact(cands)

	res := BatchResult{Ops: len(d), Candidates: len(cands)}
	if len(cands) > 0 {
		res.SamplesInvalidated, res.SamplesExtended = s.repair(ng, ov, d, cands, invalidates)
	}

	s.g = ng
	s.epoch++
	s.log = append(s.log, append(graph.Delta(nil), d...))
	res.Epoch = s.epoch
	s.stats.DeltasApplied += int64(len(d))
	s.stats.Batches++
	s.stats.SamplesInvalidated += res.SamplesInvalidated
	s.stats.SamplesExtended += res.SamplesExtended
	if s.mApplied != nil {
		s.mApplied.Add(int64(len(d)))
		s.mInvalidated.Add(res.SamplesInvalidated)
		s.mExtended.Add(res.SamplesExtended)
	}
	return res, nil
}

// repair re-derives every candidate sample against the mutated graph ng
// and swaps the repaired collection + index in. Each candidate is an
// independent pure function of its id, so the op walk parallelizes over
// contiguous candidate ranges with no cross-worker state. The walk only
// flags invalidated samples; they are regenerated afterwards, in
// candidate order, on the fused kernel over s.shared: 64-lane batches of
// ids handed out by work stealing, since regeneration cost is as skewed
// as cold sampling's. The stitched collection is identical at any worker
// count.
func (s *DynamicSketch) repair(ng *graph.Graph, ov *graph.Overlay, d graph.Delta,
	cands []int32, invalidates func(graph.DeltaOp) bool) (invalidated, extended int64) {
	n := s.g.NumVertices()
	extSeed := extensionSeed(s.opt.Seed, s.epoch)

	// Tail in-slots of the compacted graph hold the batch's inserted
	// edges; slot -> op index lets an extension BFS mark coins it already
	// drew so the sequential op loop does not draw them again.
	appendedOps := make(map[graph.Vertex][]int32)
	for _, op := range d {
		if _, ok := appendedOps[op.Dst]; !ok {
			appendedOps[op.Dst] = ov.AppendedInOps(op.Dst)
		}
	}

	p := min(s.opt.Workers, len(cands))
	// replaced[ci] == nil keeps the old sample; workers own disjoint ci
	// ranges, so the slices need no synchronization. A regenerated or
	// extended empty sample cannot occur (the root is always a member).
	replaced := make([][]graph.Vertex, len(cands))
	inval := make([]bool, len(cands))
	par.ForEach(len(cands), p, func(rank, lo, hi int) {
		w := &deltaWorker{
			g:      ng,
			gen:    rng.NewSplitMix64(0),
			member: make([]uint32, n),
			exam:   make([]bool, len(d)),
		}
		w.stream = rng.New(w.gen)
		for ci := lo; ci < hi; ci++ {
			replaced[ci], inval[ci] = s.repairOne(w, d, appendedOps, extSeed, int(cands[ci]), invalidates)
		}
	})
	var regen []int32 // invalidated ids in candidate order
	var at []int      // their candidate positions
	for ci, inv := range inval {
		if inv {
			regen = append(regen, cands[ci])
			at = append(at, ci)
		} else if replaced[ci] != nil {
			extended++
		}
	}
	invalidated = int64(len(regen))

	if len(regen) > 0 {
		fused := make([]*diffuse.FusedSampler, s.opt.Workers)
		batches := (len(regen) + diffuse.MaxLanes - 1) / diffuse.MaxLanes
		par.Dynamic(batches, s.opt.Workers, 1, func(rank, lo, hi int) {
			if fused[rank] == nil {
				fused[rank] = diffuse.NewFusedSamplerShared(ng, s.opt.Model, s.shared)
			}
			first := lo * diffuse.MaxLanes
			ids := regen[first:min(hi*diffuse.MaxLanes, len(regen))]
			verts, sizes := fused[rank].GenerateIDs(s.opt.Seed, ids, nil, nil)
			for i, sz := range sizes {
				replaced[at[first+i]], verts = verts[:sz], verts[sz:]
			}
		})
	}

	ncol := rrr.NewCollection(n)
	ncol.Reserve(s.col.Count(), s.col.TotalSize())
	changed := make([]int32, 0, len(cands))
	ci := 0
	for id := 0; id < s.col.Count(); id++ {
		if ci < len(cands) && int(cands[ci]) == id {
			if r := replaced[ci]; r != nil {
				ncol.Append(r)
				changed = append(changed, cands[ci])
			} else {
				ncol.Append(s.col.Sample(id))
			}
			ci++
			continue
		}
		ncol.Append(s.col.Sample(id))
	}
	// Patch the incidence index instead of rebuilding: only the changed
	// samples' memberships moved, and a full rebuild's fixed navigation
	// cost (every worker walks all theta samples twice) would dwarf the
	// actual repair work of a small batch.
	s.idx = rrr.PatchIndex(s.idx, s.col, ncol, changed, s.opt.Workers)
	s.col = ncol
	return invalidated, extended
}

// repairOne walks the batch ops in order against one sample's evolving
// membership and returns the extended vertex list (nil if untouched).
// Invalidation wins immediately: it only reports the sample, which repair
// then regenerates with its original stream on the mutated graph,
// byte-identical to a cold build's sample id. Extensions accumulate: each
// unexamined IC insertion whose target is a current member draws one coin
// from the sample's epoch stream and, on success, reverse-BFSes from the
// inserted source across vertices not yet in the sample.
func (s *DynamicSketch) repairOne(w *deltaWorker, d graph.Delta,
	appendedOps map[graph.Vertex][]int32, extSeed uint64, id int,
	invalidates func(graph.DeltaOp) bool) (out []graph.Vertex, invalidated bool) {
	members := s.col.Sample(id)
	w.nextStamp()
	for _, v := range members {
		w.member[v] = w.stamp
	}
	w.buf = w.buf[:0]
	clear(w.exam) // the invalidation path below returns before any reset
	streamReady := false

	for t, op := range d {
		if w.member[op.Dst] != w.stamp {
			continue
		}
		if invalidates(op) {
			return nil, true
		}
		if w.exam[t] {
			continue
		}
		w.exam[t] = true
		if w.member[op.Src] == w.stamp {
			// The edge connects two members: a cold traversal would have
			// skipped it via the visited check before drawing a coin.
			continue
		}
		if !streamReady {
			w.gen.Reseed(extSeed, uint64(id))
			streamReady = true
		}
		if w.stream.Float32() < op.W {
			w.extend(appendedOps, op.Src)
		}
	}
	if len(w.buf) == 0 {
		return nil, false // no extension fired
	}
	out = make([]graph.Vertex, 0, len(members)+len(w.buf))
	out = append(out, members...)
	out = append(out, w.buf...)
	slices.Sort(out)
	return out, false
}

// extend grows the current sample by reverse BFS from src (which just
// joined through an activated insertion): newly added vertices have never
// been visited by this sample, so every one of their in-edges draws a
// fresh coin — except edges from existing members, which a cold traversal
// skips before the coin, and other batch insertions, whose coins are
// marked examined so the op loop does not draw them twice.
func (w *deltaWorker) extend(appendedOps map[graph.Vertex][]int32, src graph.Vertex) {
	w.member[src] = w.stamp
	w.buf = append(w.buf, src)
	w.queue = append(w.queue[:0], src)
	for head := 0; head < len(w.queue); head++ {
		x := w.queue[head]
		srcs, ws := w.g.InNeighbors(x)
		ops := appendedOps[x]
		base := len(srcs) - len(ops)
		for i, u := range srcs {
			if i >= base {
				// A batch-inserted edge: this BFS is its one coin draw.
				w.exam[ops[i-base]] = true
			}
			if w.member[u] == w.stamp {
				continue
			}
			if w.stream.Float32() < ws[i] {
				w.member[u] = w.stamp
				w.queue = append(w.queue, u)
				w.buf = append(w.buf, u)
			}
		}
	}
}
