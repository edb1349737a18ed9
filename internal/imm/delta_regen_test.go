package imm

import (
	"reflect"
	"slices"
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/gen"
	"influmax/internal/graph"
)

// TestDeltaDeferredRegeneration pins the regeneration of every candidate
// sample (64-lane fused batches under work stealing) on an IC batch under
// explicit weights, mixed, led by a weight-1 insertion into the vertex in
// the most samples: an insertion keeps every existing coin's
// distribution, yet the samples it touches must still be redrawn, since
// the new coin shifts each later draw of their streams. After the batch,
// every sample must equal its cold regeneration on the post-batch graph,
// and the collection, batch result and Stats must be identical at every
// worker count. The batch regenerates more than one 64-lane batch and
// not a multiple of 64, so a ragged last batch is exercised.
func TestDeltaDeferredRegeneration(t *testing.T) {
	cfg := deltaConfigs()[0] // IC-explicit
	build := func(workers int) *DynamicSketch {
		return buildDynamic(t, gen.ErdosRenyi(300, 1500, 1), cfg, workers)
	}
	ref := build(1)
	g := ref.Graph()

	// v: the vertex in the most samples; u: a vertex with no edge u->v.
	n := g.NumVertices()
	v := graph.Vertex(0)
	for c := 1; c < n; c++ {
		if len(ref.Index().SamplesOf(graph.Vertex(c))) > len(ref.Index().SamplesOf(v)) {
			v = graph.Vertex(c)
		}
	}
	u := graph.Vertex(0)
	for u == v || slices.Contains(g.InSources(v), u) {
		u++
	}
	d := graph.Delta{{Kind: graph.DeltaInsert, Src: u, Dst: v, W: 1}}
	for _, op := range randomScript(g, "mixed", 17, 1, 12)[0] {
		if op.Src != u || op.Dst != v {
			d = append(d, op)
		}
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
			if inv := res.SamplesInvalidated; inv <= 64 || inv%64 == 0 || inv != int64(res.Candidates) {
				t.Fatalf("batch regenerated %d of %d candidates; want all, above one 64-lane batch and not a multiple of it",
					inv, res.Candidates)
			}
			cold := coldResample(dyn.Graph(), cfg.model, dyn.Options().Seed, dyn.Collection().Count())
			sameCollections(t, "post-batch vs cold regeneration", dyn.Collection(), cold)
			continue
		}
		sameCollections(t, "workers=1 vs more", first.Collection(), dyn.Collection())
		if res != firstRes || dyn.Stats() != first.Stats() {
			t.Fatalf("workers=%d: batch %+v stats %+v, want %+v %+v",
				workers, res, dyn.Stats(), firstRes, first.Stats())
		}
	}
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
