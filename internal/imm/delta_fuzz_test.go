package imm

import (
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/gen"
	"influmax/internal/graph"
)

// decodeDeltaScript turns fuzz bytes into delta batches over an n-vertex
// graph: 6 bytes per op (kind, src, dst, weight, batch break), at most 32
// ops. Invalid ops are generated on purpose — ApplyDelta must reject them
// atomically, never corrupt the sketch.
func decodeDeltaScript(data []byte, n int) []graph.Delta {
	var script []graph.Delta
	var cur graph.Delta
	for len(data) >= 6 && len(script)*4+len(cur) < 32 {
		op := graph.DeltaOp{
			Kind: graph.DeltaOpKind(data[0] % 3), // includes an invalid kind
			Src:  graph.Vertex(data[1]) % graph.Vertex(n+1),
			Dst:  graph.Vertex(data[2]) % graph.Vertex(n+1),
			W:    float32(data[3]) / 250, // occasionally > 1
		}
		cur = append(cur, op)
		if data[4]%4 == 0 {
			script = append(script, cur)
			cur = nil
		}
		data = data[6:]
	}
	if len(cur) > 0 {
		script = append(script, cur)
	}
	return script
}

// FuzzApplyDelta drives a dynamic sketch with arbitrary (including
// invalid) delta scripts and checks the invariants that must hold no
// matter what: rejected batches leave the sketch untouched, accepted
// batches keep the collection well-formed at its pinned size and equal to
// a cold regeneration of every sample id on the current graph, and the
// whole run is a pure function of the script (a second identical run
// produces an identical sketch).
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{0, 1, 2, 100, 0, 0, 1, 1, 2, 0, 1, 0})
	f.Add([]byte{0, 3, 7, 200, 3, 0, 0, 7, 3, 120, 0, 0, 1, 3, 7, 0, 2, 0})
	f.Add([]byte{2, 0, 0, 255, 0, 0})
	// Insert-heavy, explicit IC: weight-1 and mid-weight insertions across
	// the ring, in two batches, then one deletion of an inserted edge.
	f.Add([]byte{
		0, 0, 32, 250, 1, 0, 0, 5, 40, 250, 1, 0, 0, 10, 50, 200, 1, 0,
		0, 20, 60, 250, 0, 0, 0, 33, 3, 250, 1, 0, 0, 47, 17, 120, 1, 0,
		0, 32, 0, 250, 1, 0, 1, 0, 32, 0, 0, 0,
	})

	base := func() *graph.Graph {
		g := gen.WattsStrogatz(64, 4, 0.2, 1)
		g.AssignConstant(0.2)
		return g
	}
	opt := Options{K: 3, Epsilon: 0.5, Model: diffuse.IC, Workers: 2, Seed: 5}

	f.Fuzz(func(t *testing.T, data []byte) {
		script := decodeDeltaScript(data, 64)
		run := func() *DynamicSketch {
			dyn, _, err := NewDynamicSketch(base(), opt, WeightsExplicit)
			if err != nil {
				t.Fatalf("NewDynamicSketch: %v", err)
			}
			count := dyn.Collection().Count()
			for _, d := range script {
				digest := dyn.Graph().Digest()
				epoch := dyn.Epoch()
				_, err := dyn.ApplyDelta(d)
				if err != nil {
					if _, ok := err.(*graph.DeltaError); !ok {
						t.Fatalf("ApplyDelta error is %T (%v), want *graph.DeltaError", err, err)
					}
					if dyn.Graph().Digest() != digest || dyn.Epoch() != epoch {
						t.Fatalf("rejected batch mutated the sketch")
					}
				}
				col := dyn.Collection()
				if col.Count() != count {
					t.Fatalf("sample count moved from %d to %d; theta is pinned", count, col.Count())
				}
				if bad := col.CheckInvariants(); bad != -1 {
					t.Fatalf("collection invariant broken at sample %d", bad)
				}
				if err == nil {
					cold := coldResample(dyn.Graph(), opt.Model, opt.Seed, count)
					sameCollections(t, "maintained vs cold resample", col, cold)
				}
			}
			return dyn
		}
		a, b := run(), run()
		if a.Graph().Digest() != b.Graph().Digest() {
			t.Fatalf("graph digest not deterministic across identical runs")
		}
		if a.Collection().Count() != b.Collection().Count() ||
			a.Collection().TotalSize() != b.Collection().TotalSize() {
			t.Fatalf("collection shape not deterministic across identical runs")
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("telemetry not deterministic: %+v vs %+v", a.Stats(), b.Stats())
		}
		for i := 0; i < a.Collection().Count(); i++ {
			sa, sb := a.Collection().Sample(i), b.Collection().Sample(i)
			for j := range sa {
				if sa[j] != sb[j] {
					t.Fatalf("sample %d differs between identical runs", i)
				}
			}
		}
	})
}
