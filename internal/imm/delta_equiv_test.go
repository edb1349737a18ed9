package imm

import (
	"strings"
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/gen"
	"influmax/internal/graph"
	"influmax/internal/rng"
	"influmax/internal/rrr"
)

// The differential consistency harness: after any delta sequence, the
// maintained sketch must equal a cold rebuild on the mutated graph at the
// pinned theta, byte for byte, and its answers must stay inside the
// approximation band of a cold IMM run — across models, weight policies,
// stores and worker counts.

// deltaConfig is one (model, weight scheme, policy) point of the harness
// matrix.
type deltaConfig struct {
	name   string
	model  diffuse.Model
	policy WeightPolicy
	weight func(*graph.Graph)
}

func deltaConfigs() []deltaConfig {
	return []deltaConfig{
		{"IC-explicit", diffuse.IC, WeightsExplicit, func(g *graph.Graph) { g.AssignConstant(0.25) }},
		{"IC-wc", diffuse.IC, WeightsWC, func(g *graph.Graph) { g.AssignWeightedCascade() }},
		{"LT-wc", diffuse.LT, WeightsWC, func(g *graph.Graph) {
			g.AssignWeightedCascade()
			g.NormalizeLT()
		}},
	}
}

// deltaGraph is one fixed-seed harness graph.
type deltaGraph struct {
	name  string
	build func() *graph.Graph
}

func deltaGraphs() []deltaGraph {
	return []deltaGraph{
		{"erdos-renyi", func() *graph.Graph { return gen.ErdosRenyi(300, 1500, 1) }},
		{"barabasi-albert", func() *graph.Graph { return gen.BarabasiAlbert(400, 3, 2) }},
		{"watts-strogatz", func() *graph.Graph { return gen.WattsStrogatz(200, 6, 0.1, 3) }},
	}
}

// edgeSet tracks the live edge multiset of a mutating graph so the script
// generator only emits valid ops.
type edgeSet struct {
	count map[[2]graph.Vertex]int
	live  [][2]graph.Vertex
}

func newEdgeSet(g *graph.Graph) *edgeSet {
	es := &edgeSet{count: make(map[[2]graph.Vertex]int)}
	for v := 0; v < g.NumVertices(); v++ {
		dsts, _ := g.OutNeighbors(graph.Vertex(v))
		for _, d := range dsts {
			es.add(graph.Vertex(v), d)
		}
	}
	return es
}

func (es *edgeSet) add(u, v graph.Vertex) {
	es.count[[2]graph.Vertex{u, v}]++
	es.live = append(es.live, [2]graph.Vertex{u, v})
}

func (es *edgeSet) remove(i int) {
	e := es.live[i]
	es.count[e]--
	es.live[i] = es.live[len(es.live)-1]
	es.live = es.live[:len(es.live)-1]
}

func (es *edgeSet) has(u, v graph.Vertex) bool {
	return es.count[[2]graph.Vertex{u, v}] > 0
}

// randomScript generates batches of valid delta ops against g. kind is
// "insert", "delete" or "mixed"; every script also aims a couple of
// adversarial ops at the maximum-in-degree hub, whose incidence list is
// the worst case for the invalidation rule.
func randomScript(g *graph.Graph, kind string, seed uint64, batches, opsPer int) []graph.Delta {
	r := rng.New(rng.NewLCG(rng.Mix64(seed)))
	es := newEdgeSet(g)
	n := g.NumVertices()
	hub := graph.Vertex(0)
	for v := 1; v < n; v++ {
		if g.InDegree(graph.Vertex(v)) > g.InDegree(hub) {
			hub = graph.Vertex(v)
		}
	}
	insert := func(u, v graph.Vertex) (graph.DeltaOp, bool) {
		if es.has(u, v) {
			return graph.DeltaOp{}, false
		}
		es.add(u, v)
		return graph.DeltaOp{Kind: graph.DeltaInsert, Src: u, Dst: v, W: 0.05 + 0.5*r.Float32()}, true
	}
	var script []graph.Delta
	for b := 0; b < batches; b++ {
		var d graph.Delta
		for o := 0; o < opsPer; o++ {
			del := kind == "delete" || (kind == "mixed" && r.Intn(2) == 0)
			if del && len(es.live) > 0 {
				i := r.Intn(len(es.live))
				e := es.live[i]
				es.remove(i)
				d = append(d, graph.DeltaOp{Kind: graph.DeltaDelete, Src: e[0], Dst: e[1]})
			} else if kind != "delete" {
				u, v := graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))
				if o == 0 { // adversarial hub edge each batch
					v = hub
				}
				if op, ok := insert(u, v); ok {
					d = append(d, op)
				}
			}
		}
		if len(d) > 0 {
			script = append(script, d)
		}
	}
	return script
}

func buildDynamic(t testing.TB, g *graph.Graph, cfg deltaConfig, workers int) *DynamicSketch {
	t.Helper()
	cfg.weight(g)
	opt := Options{K: 5, Epsilon: 0.4, Model: cfg.model, Workers: workers, Seed: 11}
	dyn, _, err := NewDynamicSketch(g, opt, cfg.policy)
	if err != nil {
		t.Fatalf("NewDynamicSketch: %v", err)
	}
	return dyn
}

func applyScript(t testing.TB, dyn *DynamicSketch, script []graph.Delta) {
	t.Helper()
	for i, d := range script {
		if _, err := dyn.ApplyDelta(d); err != nil {
			t.Fatalf("ApplyDelta batch %d: %v", i, err)
		}
	}
}

func sameCollections(t *testing.T, ctx string, a, b *rrr.Collection) {
	t.Helper()
	if a.Count() != b.Count() {
		t.Fatalf("%s: %d vs %d samples", ctx, a.Count(), b.Count())
	}
	for i := 0; i < a.Count(); i++ {
		sa, sb := a.Sample(i), b.Sample(i)
		if len(sa) != len(sb) {
			t.Fatalf("%s: sample %d has %d vs %d members", ctx, i, len(sa), len(sb))
		}
		for j := range sa {
			if sa[j] != sb[j] {
				t.Fatalf("%s: sample %d differs at slot %d: %d vs %d", ctx, i, j, sa[j], sb[j])
			}
		}
	}
}

// coldResample regenerates every sample id of the maintained collection
// directly on g with the scalar kernel and the original per-sample
// streams — the reference a correct maintenance pass must reproduce
// byte-for-byte.
func coldResample(g *graph.Graph, model diffuse.Model, seed uint64, count int) *rrr.Collection {
	col := rrr.NewCollection(g.NumVertices())
	sampler := diffuse.NewSampler(g, model)
	genr := rng.NewSplitMix64(0)
	stream := rng.New(genr)
	var buf []graph.Vertex
	for id := 0; id < count; id++ {
		genr.Reseed(seed, uint64(id))
		root := graph.Vertex(stream.Intn(g.NumVertices()))
		buf = sampler.GenerateRR(stream, root, buf[:0])
		col.Append(buf)
	}
	return col
}

// TestDeltaByteIdentityOracle pins the repair rule itself: for every
// model, weight policy and script kind, the maintained collection after a
// delta script must be byte-identical to regenerating all of its sample
// ids cold on the mutated graph — including the samples maintenance never
// touched, which is exactly the claim that a sample not containing the op
// target never drew a coin on the mutated in-list.
func TestDeltaByteIdentityOracle(t *testing.T) {
	for _, gd := range deltaGraphs() {
		for _, cfg := range deltaConfigs() {
			for _, kind := range []string{"insert", "delete", "mixed"} {
				t.Run(gd.name+"/"+cfg.name+"/"+kind, func(t *testing.T) {
					g := gd.build()
					dyn := buildDynamic(t, g, cfg, 4)
					applyScript(t, dyn, randomScript(dyn.Graph(), kind, 42, 4, 8))
					if dyn.Stats().SamplesInvalidated == 0 {
						t.Fatalf("script repaired nothing; the oracle would pass vacuously")
					}
					want := coldResample(dyn.Graph(), cfg.model, dyn.Options().Seed, dyn.Collection().Count())
					sameCollections(t, "maintained vs cold resample", dyn.Collection(), want)
					if res := dyn.Collection().CheckInvariants(); res != -1 {
						t.Fatalf("maintained collection invariant broken at sample %d", res)
					}
				})
			}
		}
	}
}

// coverageOn counts how many samples of col contain at least one seed.
func coverageOn(col *rrr.Collection, seeds []graph.Vertex) int64 {
	var covered int64
	for i := 0; i < col.Count(); i++ {
		for _, s := range seeds {
			if col.Contains(i, s) {
				covered++
				break
			}
		}
	}
	return covered
}

// TestDeltaDifferentialConsistency is the epsilon layer: for mixed and
// insertion-heavy scripts, the seeds served from the maintained sketch
// must cover, on a cold rebuild's own samples (whose theta is re-derived
// on the mutated graph, unlike the maintained sketch's pinned one), at
// least the cold seeds' coverage minus epsilon. This is the
// bounded-staleness contract: maintained answers stay inside the same
// approximation band a fresh build would promise.
func TestDeltaDifferentialConsistency(t *testing.T) {
	for _, gd := range deltaGraphs() {
		for _, cfg := range deltaConfigs() {
			for _, kind := range []string{"insert", "mixed"} {
				t.Run(gd.name+"/"+cfg.name+"/"+kind, func(t *testing.T) {
					g := gd.build()
					dyn := buildDynamic(t, g, cfg, 4)
					applyScript(t, dyn, randomScript(dyn.Graph(), kind, 97, 4, 8))

					incSeeds, _ := dyn.Query(dyn.Options().K, 4)

					cold, coldCol, _, err := RunCollect(dyn.Graph(), dyn.Options())
					if err != nil {
						t.Fatalf("cold rebuild: %v", err)
					}
					incCov := float64(coverageOn(coldCol, incSeeds)) / float64(coldCol.Count())
					if incCov < cold.CoverageFraction-dyn.Options().Epsilon {
						t.Fatalf("incremental seeds %v cover %.4f of the cold samples; cold seeds %v cover %.4f (eps %.2f)",
							incSeeds, incCov, cold.Seeds, cold.CoverageFraction, dyn.Options().Epsilon)
					}
				})
			}
		}
	}
}

// TestDeltaWorkerDeterminism pins that maintenance is a pure function of
// the delta script: the collection, the served seeds and the repair
// telemetry are identical at 1 and 4 workers.
func TestDeltaWorkerDeterminism(t *testing.T) {
	for _, gd := range deltaGraphs() {
		for _, cfg := range deltaConfigs() {
			t.Run(gd.name+"/"+cfg.name, func(t *testing.T) {
				run := func(workers int) *DynamicSketch {
					g := gd.build()
					dyn := buildDynamic(t, g, cfg, workers)
					applyScript(t, dyn, randomScript(dyn.Graph(), "mixed", 7, 3, 10))
					return dyn
				}
				a, b := run(1), run(4)
				sameCollections(t, "workers=1 vs workers=4", a.Collection(), b.Collection())
				if a.Graph().Digest() != b.Graph().Digest() {
					t.Fatalf("graph digests diverge across worker counts")
				}
				if a.Stats() != b.Stats() {
					t.Fatalf("repair telemetry diverges: %+v vs %+v", a.Stats(), b.Stats())
				}
				sa, ca := a.Query(5, 1)
				sb, cb := b.Query(5, 4)
				if ca != cb || len(sa) != len(sb) {
					t.Fatalf("query results diverge: %v (%d) vs %v (%d)", sa, ca, sb, cb)
				}
				for i := range sa {
					if sa[i] != sb[i] {
						t.Fatalf("seed %d diverges: %d vs %d", i, sa[i], sb[i])
					}
				}
			})
		}
	}
}

// TestDeltaGreedyPrefixConsistency rides the harness: over the maintained
// sketch, the k/2-seed answer must be a prefix of the k-seed answer, the
// same property the static serving layer pins.
func TestDeltaGreedyPrefixConsistency(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 2)
	cfg := deltaConfigs()[0]
	dyn := buildDynamic(t, g, cfg, 4)
	applyScript(t, dyn, randomScript(dyn.Graph(), "mixed", 13, 4, 8))
	full, _ := dyn.Query(4, 4)
	half, _ := dyn.Query(2, 4)
	if len(full) < len(half) {
		t.Fatalf("k=4 returned %d seeds, k=2 returned %d", len(full), len(half))
	}
	for i := range half {
		if half[i] != full[i] {
			t.Fatalf("greedy prefix broken at %d: %v vs %v", i, half, full)
		}
	}
}

// TestDeltaBothStores pins store equivalence over a maintained sketch:
// transcoding the post-delta collection into the byte-coded store (with
// and without frequency relabeling) must serve byte-identical seeds to
// the flat indexed path.
func TestDeltaBothStores(t *testing.T) {
	for _, cfg := range deltaConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			g := gen.ErdosRenyi(300, 1500, 1)
			dyn := buildDynamic(t, g, cfg, 4)
			applyScript(t, dyn, randomScript(dyn.Graph(), "mixed", 29, 3, 8))

			flatSeeds, flatCov := dyn.Query(5, 4)
			for _, relabeled := range []bool{false, true} {
				var relab *rrr.Relabeling
				if relabeled {
					relab = rrr.NewRelabeling(rrr.IncidenceOf(dyn.Collection(), 4))
				}
				coded := rrr.FromCollection(dyn.Collection(), relab)
				idx := rrr.BuildIndexCoded(coded, 4)
				codedSeeds, codedCov := SelectSeedsSketch(coded, idx, 5, 4)
				if codedCov != flatCov || len(codedSeeds) != len(flatSeeds) {
					t.Fatalf("relabeled=%v: coded store diverges: %v (%d) vs %v (%d)",
						relabeled, codedSeeds, codedCov, flatSeeds, flatCov)
				}
				for i := range flatSeeds {
					if codedSeeds[i] != flatSeeds[i] {
						t.Fatalf("relabeled=%v: seed %d diverges", relabeled, i)
					}
				}
			}
		})
	}
}

// TestDeltaRestoreReplay pins the warm-restart path: a sketch restored
// from (base graph, post-delta collection, delta log) must reproduce the
// live sketch's graph and answers, and must stay in lockstep with it on
// further deltas — which requires the replay to land on the same epoch.
func TestDeltaRestoreReplay(t *testing.T) {
	for _, cfg := range deltaConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			g := gen.WattsStrogatz(200, 6, 0.1, 3)
			dyn := buildDynamic(t, g, cfg, 4)
			applyScript(t, dyn, randomScript(dyn.Graph(), "mixed", 53, 3, 8))

			base := gen.WattsStrogatz(200, 6, 0.1, 3)
			cfg.weight(base)
			restored, err := RestoreDynamicSketch(base, dyn.Options(), cfg.policy,
				dyn.Collection(), dyn.Theta(), dyn.Log())
			if err != nil {
				t.Fatalf("RestoreDynamicSketch: %v", err)
			}
			if restored.Graph().Digest() != dyn.Graph().Digest() {
				t.Fatalf("replayed graph digest %x != live %x",
					restored.Graph().Digest(), dyn.Graph().Digest())
			}
			if restored.Epoch() != dyn.Epoch() {
				t.Fatalf("replayed epoch %d != live %d", restored.Epoch(), dyn.Epoch())
			}
			ra, _ := restored.Query(5, 4)
			la, _ := dyn.Query(5, 4)
			for i := range la {
				if ra[i] != la[i] {
					t.Fatalf("restored seeds %v != live %v", ra, la)
				}
			}

			// Further deltas must keep both in lockstep.
			next := randomScript(dyn.Graph(), "mixed", 59, 2, 6)
			applyScript(t, dyn, next)
			applyScript(t, restored, next)
			sameCollections(t, "restored vs live after further deltas",
				restored.Collection(), dyn.Collection())
		})
	}
}

// TestDeltaValidationLeavesSketchUntouched pins atomicity: a rejected
// batch (typed *graph.DeltaError) must leave graph, collection, epoch and
// telemetry exactly as they were.
func TestDeltaValidationLeavesSketchUntouched(t *testing.T) {
	g := gen.ErdosRenyi(300, 1500, 1)
	dyn := buildDynamic(t, g, deltaConfigs()[0], 2)
	digest := dyn.Graph().Digest()
	count := dyn.Collection().Count()
	stats := dyn.Stats()

	_, err := dyn.ApplyDelta(graph.Delta{
		{Kind: graph.DeltaInsert, Src: 0, Dst: 1, W: 0.5},
		{Kind: graph.DeltaDelete, Src: 0, Dst: 0}, // likely invalid; if not, the insert below is
		{Kind: graph.DeltaInsert, Src: 0, Dst: 1, W: 0.5},
	})
	if err == nil {
		t.Fatalf("ApplyDelta accepted a batch with a duplicate insert")
	}
	if _, ok := err.(*graph.DeltaError); !ok {
		t.Fatalf("ApplyDelta error is %T, want *graph.DeltaError", err)
	}
	if dyn.Graph().Digest() != digest || dyn.Collection().Count() != count || dyn.Stats() != stats {
		t.Fatalf("rejected batch mutated the sketch")
	}
	if dyn.Epoch() != 0 {
		t.Fatalf("rejected batch advanced the epoch to %d", dyn.Epoch())
	}
}

// TestDynamicSketchRejectsUnknownPolicy: both constructors refuse a weight
// policy outside the declared range, and the option a dynamic sketch
// cannot maintain, with the same errors.
func TestDynamicSketchRejectsUnknownPolicy(t *testing.T) {
	cfg := deltaConfigs()[0]
	live := buildDynamic(t, gen.ErdosRenyi(60, 240, 1), cfg, 2)
	for _, tc := range []struct {
		name   string
		opt    Options
		policy WeightPolicy
		want   string
	}{
		{"policy 2", live.Options(), WeightsWC + 1, "unknown weight policy 2"},
		{"policy 9", live.Options(), WeightPolicy(9), "unknown weight policy 9"},
		{"leapfrog", Options{K: 5, Epsilon: 0.4, Workers: 2, RNG: LeapFrog}, WeightsExplicit, "per-sample RNG"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := gen.ErdosRenyi(60, 240, 1)
			cfg.weight(base)
			if _, _, err := NewDynamicSketch(base, tc.opt, tc.policy); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("NewDynamicSketch = %v, want an error naming %q", err, tc.want)
			}
			if _, err := RestoreDynamicSketch(base, tc.opt, tc.policy, live.Collection(), live.Theta(), nil); err == nil ||
				!strings.Contains(err.Error(), tc.want) {
				t.Errorf("RestoreDynamicSketch = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}
