package imm

import (
	"reflect"
	"slices"
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/gen"
	"influmax/internal/graph"
	"influmax/internal/rrr"
)

// TestDeltaDeferredRegeneration pins the deferred regeneration of
// invalidated samples (the op walk only flags them; the fused kernel
// redraws them afterwards in 64-lane batches under work stealing). The
// batch is IC under explicit weights and mixed, and it is built so that
// an insertion early in the batch certainly extends a set of samples
// (weight 1 into a member, from a non-member u) and a deletion at u at the
// end of the batch then invalidates the very same samples: the extension
// must be discarded, not kept. Every invalidated sample must equal its
// cold regeneration on the post-batch graph, and the collection, batch
// result and Stats must be identical at every worker count.
func TestDeltaDeferredRegeneration(t *testing.T) {
	cfg := deltaConfigs()[0] // IC-explicit
	build := func(workers int) *DynamicSketch {
		return buildDynamic(t, gen.ErdosRenyi(300, 1500, 1), cfg, workers)
	}
	ref := build(1)
	pre := ref.Collection()
	g := ref.Graph()

	// v: the vertex in the most samples. u: an in-edged vertex with no
	// edge u->v, in the fewest samples, so most samples holding v do not
	// hold u. x->u: the edge the last op deletes.
	n := g.NumVertices()
	v := graph.Vertex(0)
	for c := 1; c < n; c++ {
		if len(ref.Index().SamplesOf(graph.Vertex(c))) > len(ref.Index().SamplesOf(v)) {
			v = graph.Vertex(c)
		}
	}
	ui := -1
	for c := 0; c < n; c++ {
		cv := graph.Vertex(c)
		if cv == v || g.InDegree(cv) == 0 || slices.Contains(g.InSources(v), cv) {
			continue
		}
		if ui < 0 || len(ref.Index().SamplesOf(cv)) < len(ref.Index().SamplesOf(graph.Vertex(ui))) {
			ui = c
		}
	}
	u := graph.Vertex(ui)
	x := g.InSources(u)[0]
	d := graph.Delta{{Kind: graph.DeltaInsert, Src: u, Dst: v, W: 1}}
	for _, op := range randomScript(g, "mixed", 17, 1, 12)[0] {
		if op.Src == u && op.Dst == v || op.Src == x && op.Dst == u {
			continue // the crafted ops own these edges
		}
		d = append(d, op)
	}
	d = append(d, graph.DeltaOp{Kind: graph.DeltaDelete, Src: x, Dst: u})

	// Membership only grows during a sample's op walk, so a sample whose
	// pre-batch membership holds a deletion's target is certainly
	// invalidated. So is every sample holding v but not u: the first op's
	// weight-1 coin adds u, and the last op then deletes an edge into u.
	// Those with no other deletion target are invalidated only through
	// their extension — the case under test, which must occur.
	var invalid []int
	viaExtension := 0
	for id := 0; id < pre.Count(); id++ {
		hit := slices.ContainsFunc(d, func(op graph.DeltaOp) bool {
			return op.Kind == graph.DeltaDelete && pre.Contains(id, op.Dst)
		})
		crafted := pre.Contains(id, v) && !pre.Contains(id, u)
		if crafted && !hit {
			viaExtension++
		}
		if hit || crafted {
			invalid = append(invalid, id)
		}
	}
	if viaExtension == 0 {
		t.Fatal("no sample is invalidated only through an extension; the case would go untested")
	}

	var first *DynamicSketch
	var firstRes BatchResult
	for _, workers := range []int{1, 2, 3, 8} {
		dyn := ref
		if workers != 1 {
			dyn = build(workers)
		}
		res, err := dyn.ApplyDelta(d)
		if err != nil {
			t.Fatalf("workers=%d: ApplyDelta: %v", workers, err)
		}
		if first == nil {
			first, firstRes = dyn, res
			checkRegenerated(t, pre, dyn, res, invalid)
			continue
		}
		sameCollections(t, "workers=1 vs more", first.Collection(), dyn.Collection())
		if res != firstRes || dyn.Stats() != first.Stats() {
			t.Fatalf("workers=%d: batch %+v stats %+v, want %+v %+v",
				workers, res, dyn.Stats(), firstRes, first.Stats())
		}
	}
}

// checkRegenerated holds the post-batch collection of dyn against the cold
// regeneration of every id on the post-batch graph: the samples known to
// be invalidated must equal it exactly, and every other sample must
// either equal it or keep all of its pre-batch members (untouched, or
// extended).
func checkRegenerated(t *testing.T, pre *rrr.Collection, dyn *DynamicSketch, res BatchResult, invalid []int) {
	t.Helper()
	if inv := res.SamplesInvalidated; inv <= 64 || inv%64 == 0 || inv < int64(len(invalid)) {
		t.Fatalf("batch invalidated %d samples (%d known); want a count above one 64-lane batch and not a multiple of it",
			inv, len(invalid))
	}
	post := dyn.Collection()
	cold := coldResample(dyn.Graph(), dyn.Options().Model, dyn.Options().Seed, post.Count())
	for _, id := range invalid {
		if !slices.Equal(post.Sample(id), cold.Sample(id)) {
			t.Fatalf("invalidated sample %d != its cold regeneration", id)
		}
	}
	for id := 0; id < post.Count(); id++ {
		if p := post.Sample(id); !slices.Equal(p, cold.Sample(id)) && !subset(pre.Sample(id), p) {
			t.Fatalf("sample %d is neither its cold regeneration nor a superset of its pre-batch self", id)
		}
	}
}

// subset reports whether sorted a is contained in sorted b.
func subset(a, b []graph.Vertex) bool {
	for _, x := range a {
		if _, ok := slices.BinarySearch(b, x); !ok {
			return false
		}
	}
	return true
}

// TestDeltaSharedTablesTrackGraph: the fused kernel's tables are carried
// from batch to batch, reclassifying only the op targets' in-lists, so
// after every batch they must equal the tables built from scratch over
// the post-batch graph — thresholds moved to shifted CSR slots included.
func TestDeltaSharedTablesTrackGraph(t *testing.T) {
	for _, cfg := range deltaConfigs() {
		dyn := buildDynamic(t, gen.BarabasiAlbert(400, 3, 2), cfg, 2)
		for i, d := range randomScript(dyn.Graph(), "mixed", 31, 5, 8) {
			if _, err := dyn.ApplyDelta(d); err != nil {
				t.Fatalf("%s batch %d: %v", cfg.name, i, err)
			}
			if !reflect.DeepEqual(dyn.shared, diffuse.NewFusedShared(dyn.Graph(), cfg.model)) {
				t.Fatalf("%s batch %d: carried fused tables != a fresh build over the post-batch graph", cfg.name, i)
			}
		}
	}
}
