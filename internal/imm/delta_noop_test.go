package imm

import (
	"reflect"
	"slices"
	"testing"

	"influmax/internal/gen"
	"influmax/internal/graph"
)

// TestDeltaNetNoOpBatch pins the repair set to the in-lists a batch
// actually changes. Two batches that leave the graph's in-lists as they
// were, an insert then delete of one edge and a delete then reinsert of a
// vertex's last in-edge at its weight, both aimed at the vertex in the
// most samples, must repair nothing: zero candidates, the collection and
// index unchanged byte for byte, yet the epoch, the log and the batch
// count advance and the log replays through RestoreDynamicSketch. A
// batch that adds a real insert at another target must then regenerate
// exactly that target's samples, and the result must equal a cold
// regeneration over the post-batch graph.
func TestDeltaNetNoOpBatch(t *testing.T) {
	for _, cfg := range deltaConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			dyn := buildDynamic(t, gen.ErdosRenyi(300, 1500, 1), cfg, 2)
			g := dyn.Graph()
			n := g.NumVertices()
			// v: the vertex in the most samples; u: a vertex with no edge
			// u->v; last: the source of v's last in-edge.
			v := graph.Vertex(0)
			for c := 1; c < n; c++ {
				if len(dyn.Index().SamplesOf(graph.Vertex(c))) > len(dyn.Index().SamplesOf(v)) {
					v = graph.Vertex(c)
				}
			}
			u := graph.Vertex(0)
			for u == v || slices.Contains(g.InSources(v), u) {
				u++
			}
			srcs, ws := g.InNeighbors(v)
			last, lastW := srcs[len(srcs)-1], ws[len(ws)-1]

			noops := []graph.Delta{
				{{Kind: graph.DeltaInsert, Src: u, Dst: v, W: 0.3}, {Kind: graph.DeltaDelete, Src: u, Dst: v}},
				{{Kind: graph.DeltaDelete, Src: last, Dst: v}, {Kind: graph.DeltaInsert, Src: last, Dst: v, W: lastW}},
			}
			for i, d := range noops {
				col, idx, stats := dyn.Collection(), dyn.Index(), dyn.Stats()
				res, err := dyn.ApplyDelta(d)
				if err != nil {
					t.Fatalf("no-op batch %d: %v", i, err)
				}
				if res.Candidates != 0 || res.SamplesInvalidated != 0 {
					t.Fatalf("no-op batch %d: %d candidates, %d invalidated; want 0 and 0 (v in %d samples)",
						i, res.Candidates, res.SamplesInvalidated, len(idx.SamplesOf(v)))
				}
				sameCollections(t, "after a no-op batch", dyn.Collection(), col)
				if !reflect.DeepEqual(dyn.Index(), idx) {
					t.Fatalf("no-op batch %d changed the index", i)
				}
				if res.Epoch != uint64(i+1) || dyn.Epoch() != uint64(i+1) || len(dyn.Log()) != i+1 {
					t.Fatalf("no-op batch %d: epoch %d/%d, log of %d; want both epochs and the log at %d",
						i, res.Epoch, dyn.Epoch(), len(dyn.Log()), i+1)
				}
				want := stats
				want.Batches++
				want.DeltasApplied += int64(len(d))
				if dyn.Stats() != want {
					t.Fatalf("no-op batch %d: stats %+v, want %+v", i, dyn.Stats(), want)
				}
			}

			// A mixed batch: the no-op pair at v plus a real insert at t2,
			// the vertex in the most samples among those missing some of
			// v's samples (so that repairing v as well would show).
			t2, src := graph.Vertex(0), graph.Vertex(0)
			cover := func(c graph.Vertex) int {
				return len(dyn.Index().SamplesOf(c))
			}
			union := func(c graph.Vertex) int {
				return len(mergeIDs(dyn.Index().SamplesOf(v), dyn.Index().SamplesOf(c)))
			}
			for c := graph.Vertex(0); int(c) < n; c++ {
				if c != v && union(c) > cover(c) && cover(c) > cover(t2) {
					t2 = c
				}
			}
			for src == t2 || slices.Contains(dyn.Graph().InSources(t2), src) {
				src++
			}
			want := cover(t2)
			if want == 0 {
				t.Fatal("no second target with samples of its own")
			}
			mixed := append(graph.Delta{{Kind: graph.DeltaInsert, Src: src, Dst: t2, W: 0.2}}, noops[0]...)
			res, err := dyn.ApplyDelta(mixed)
			if err != nil {
				t.Fatalf("mixed batch: %v", err)
			}
			if res.Candidates != want || res.SamplesInvalidated != int64(want) {
				t.Fatalf("mixed batch: %d candidates, %d invalidated; want the %d samples of target %d only",
					res.Candidates, res.SamplesInvalidated, want, t2)
			}
			cold := coldResample(dyn.Graph(), cfg.model, dyn.Options().Seed, dyn.Collection().Count())
			sameCollections(t, "after the mixed batch vs cold regeneration", dyn.Collection(), cold)

			base := gen.ErdosRenyi(300, 1500, 1)
			cfg.weight(base)
			restored, err := RestoreDynamicSketch(base, dyn.Options(), cfg.policy,
				dyn.Collection(), dyn.Theta(), dyn.Log())
			if err != nil {
				t.Fatalf("RestoreDynamicSketch: %v", err)
			}
			if restored.Epoch() != dyn.Epoch() || restored.Graph().Digest() != dyn.Graph().Digest() {
				t.Fatalf("replay: epoch %d digest %x, live epoch %d digest %x",
					restored.Epoch(), restored.Graph().Digest(), dyn.Epoch(), dyn.Graph().Digest())
			}
			next := randomScript(dyn.Graph(), "mixed", 67, 2, 6)
			applyScript(t, dyn, next)
			applyScript(t, restored, next)
			sameCollections(t, "restored vs live after further deltas", restored.Collection(), dyn.Collection())
		})
	}
}

// mergeIDs is the sorted union of two ascending sample-id lists.
func mergeIDs(a, b []int32) []int32 {
	out := append(slices.Clone(a), b...)
	slices.Sort(out)
	return slices.Compact(out)
}
