package imm

import (
	"slices"
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/metrics"
	"influmax/internal/rng"
	"influmax/internal/rrr"
)

// rrrCollection samples `count` RRR sets from g into a Collection — the
// realistic workload (skewed set sizes, clustered membership) for the
// scan-vs-indexed equivalence checks below.
func rrrCollection(g *graph.Graph, seed uint64, count int) *rrr.Collection {
	col := rrr.NewCollection(g.NumVertices())
	sampler := diffuse.NewSampler(g, diffuse.IC)
	r := rng.New(rng.NewLCG(seed))
	var buf []graph.Vertex
	for i := 0; i < count; i++ {
		buf = sampler.GenerateRR(r, graph.Vertex(r.Intn(g.NumVertices())), buf[:0])
		col.Append(buf)
	}
	return col
}

// TestSelectSeedsIndexedMatchesScan is the tentpole's determinism gate: on
// fixed-seed synthetic graphs, the index-driven selection must return
// byte-identical seed sequences and coverage counts to the paper-faithful
// scan implementation, for one and several workers.
func TestSelectSeedsIndexedMatchesScan(t *testing.T) {
	graphs := []struct {
		seed uint64
		n, m int
	}{
		{101, 80, 500},
		{202, 150, 1200},
		{303, 300, 2600},
	}
	for _, gc := range graphs {
		g := testGraph(gc.seed, gc.n, gc.m)
		col := rrrCollection(g, gc.seed^0xabcd, 400)
		for _, p := range []int{1, 4} {
			wantSeeds, wantCov := SelectSeedsScan(col, 12, p)
			gotSeeds, gotCov := SelectSeeds(col, 12, p)
			if !slices.Equal(gotSeeds, wantSeeds) || gotCov != wantCov {
				t.Fatalf("graph seed=%d p=%d: indexed (%v, %d) != scan (%v, %d)",
					gc.seed, p, gotSeeds, gotCov, wantSeeds, wantCov)
			}
			// The prebuilt-index entry point must agree too.
			idx := rrr.BuildIndex(col, p)
			idxSeeds, idxCov := SelectSeedsIndexed(col, idx, 12, p)
			if !slices.Equal(idxSeeds, wantSeeds) || idxCov != wantCov {
				t.Fatalf("graph seed=%d p=%d: SelectSeedsIndexed diverges", gc.seed, p)
			}
		}
	}
}

// TestSelectSeedsPaddingSeeds exercises k larger than the number of
// vertices with nonzero coverage: both paths must pad with zero-gain seeds
// (deterministically, smallest id first) without over- or under-counting
// coverage.
func TestSelectSeedsPaddingSeeds(t *testing.T) {
	// 12 vertices, but only 0..2 ever appear in a sample.
	col := rrr.NewCollection(12)
	col.Append([]graph.Vertex{0, 1})
	col.Append([]graph.Vertex{1, 2})
	col.Append([]graph.Vertex{1})
	for _, p := range []int{1, 4} {
		seeds, cov := SelectSeeds(col, 7, p)
		scanSeeds, scanCov := SelectSeedsScan(col, 7, p)
		if !slices.Equal(seeds, scanSeeds) || cov != scanCov {
			t.Fatalf("p=%d: padding paths diverge: %v/%d vs %v/%d", p, seeds, cov, scanSeeds, scanCov)
		}
		if len(seeds) != 7 {
			t.Fatalf("p=%d: got %d seeds, want 7 (padded)", p, len(seeds))
		}
		if cov != 3 {
			t.Fatalf("p=%d: covered %d samples, want all 3", p, cov)
		}
		// Vertex 1 covers everything, so every later pick is padding and
		// must proceed in ascending id order.
		if seeds[0] != 1 {
			t.Fatalf("p=%d: first seed %v, want 1", p, seeds[0])
		}
		sorted := append([]graph.Vertex(nil), seeds[1:]...)
		slices.Sort(sorted)
		if !slices.Equal(sorted, seeds[1:]) {
			t.Fatalf("p=%d: padding seeds out of ascending order: %v", p, seeds)
		}
	}
}

// TestSelectSeedsMoreWorkersThanVertices is the par.Interval n < p shape:
// the worker count must clamp without panicking or changing the output.
func TestSelectSeedsMoreWorkersThanVertices(t *testing.T) {
	col := rrr.NewCollection(3)
	col.Append([]graph.Vertex{0, 2})
	col.Append([]graph.Vertex{2})
	ref, refCov := SelectSeeds(col, 2, 1)
	for _, fn := range []func(*rrr.Collection, int, int) ([]graph.Vertex, int64){SelectSeeds, SelectSeedsScan} {
		seeds, cov := fn(col, 2, 64)
		if !slices.Equal(seeds, ref) || cov != refCov {
			t.Fatalf("p=64: (%v, %d) != p=1 (%v, %d)", seeds, cov, ref, refCov)
		}
	}
}

// TestSelectSeedsZeroVertexUniverse is the n == 0 shape: an empty universe
// must yield no seeds on every path rather than a partitioning panic.
func TestSelectSeedsZeroVertexUniverse(t *testing.T) {
	col := rrr.NewCollection(0)
	for _, fn := range []func(*rrr.Collection, int, int) ([]graph.Vertex, int64){SelectSeeds, SelectSeedsScan} {
		seeds, cov := fn(col, 3, 4)
		if len(seeds) != 0 || cov != 0 {
			t.Fatalf("n=0: seeds=%v cov=%d, want none", seeds, cov)
		}
	}
}

// TestRunRecordsIndex checks the Run plumbing: the index footprint must be
// reported in the Result and the report, and the rrr/index-bytes gauge
// set when a registry is attached. A sparse draw builds an index; a dense
// one selects on its bit matrix and reports none.
func TestRunRecordsIndex(t *testing.T) {
	for _, dense := range []bool{false, true} {
		g := testGraph(50, 120, 900)
		if !dense {
			g = testGraph(50, 400, 600)
			g.AssignWeightedCascade()
		}
		reg := metrics.NewRegistry()
		res, err := Run(g, Options{K: 5, Epsilon: 0.5, Model: diffuse.IC, Workers: 4, Seed: 2, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if dense != (res.Store == StoreMatrix) {
			t.Fatalf("dense %v: store %v", dense, res.Store)
		}
		if dense != (res.IndexBytes == 0) {
			t.Fatalf("dense %v: IndexBytes %d", dense, res.IndexBytes)
		}
		if got := reg.Gauge("rrr/index-bytes").Value(); got != res.IndexBytes {
			t.Fatalf("rrr/index-bytes gauge %d != IndexBytes %d", got, res.IndexBytes)
		}
		rep := res.Report(Options{K: 5, Epsilon: 0.5, Model: diffuse.IC, Seed: 2, Metrics: reg})
		if rep.IndexBytes != res.IndexBytes {
			t.Fatalf("report IndexBytes %d != %d", rep.IndexBytes, res.IndexBytes)
		}
	}
}

// TestSelectSeedsSketchMatchesIndexed pins the serving path: selection
// over the byte-coded resident sketch (degree-seeded counters, arena
// purge) must return byte-identical seeds and coverage to
// SelectSeedsIndexed over the equivalent plain collection, for every
// queried k, worker count and store labeling.
func TestSelectSeedsSketchMatchesIndexed(t *testing.T) {
	g := testGraph(77, 200, 1600)
	col := rrrCollection(g, 0x5e1f, 500)
	idx := rrr.BuildIndex(col, 4)
	for _, relab := range []*rrr.Relabeling{nil, rrr.NewRelabeling(rrr.IncidenceOf(col, 4))} {
		coded := rrr.FromCollection(col, relab)
		cidx := rrr.BuildIndexCoded(coded, 4)
		for _, k := range []int{1, 10, 50, 200} {
			for _, p := range []int{1, 3, 8} {
				wantSeeds, wantCov := SelectSeedsIndexed(col, idx, k, p)
				gotSeeds, gotCov := SelectSeedsSketch(coded, cidx, k, p)
				if !slices.Equal(gotSeeds, wantSeeds) || gotCov != wantCov {
					t.Fatalf("relabeled=%v k=%d p=%d: sketch (%v, %d) != indexed (%v, %d)",
						relab != nil, k, p, gotSeeds, gotCov, wantSeeds, wantCov)
				}
			}
		}
	}
}

// TestSelectSeedsSketchConcurrentReads runs many queries over one shared
// sketch at once: copy-on-read state must keep them independent (the -race
// build is the real assertion here) and identical to a sequential run.
func TestSelectSeedsSketchConcurrentReads(t *testing.T) {
	g := testGraph(88, 120, 900)
	col := rrrCollection(g, 0xfeed, 300)
	comp := rrr.FromCollection(col, rrr.NewRelabeling(rrr.IncidenceOf(col, 2)))
	idx := rrr.BuildIndexCoded(comp, 2)
	wantSeeds, wantCov := SelectSeedsSketch(comp, idx, 25, 2)

	const queries = 16
	type out struct {
		seeds []graph.Vertex
		cov   int64
	}
	outs := make([]out, queries)
	done := make(chan int, queries)
	for q := 0; q < queries; q++ {
		go func(q int) {
			s, c := SelectSeedsSketch(comp, idx, 25, 2)
			outs[q] = out{s, c}
			done <- q
		}(q)
	}
	for q := 0; q < queries; q++ {
		<-done
	}
	for q, o := range outs {
		if !slices.Equal(o.seeds, wantSeeds) || o.cov != wantCov {
			t.Fatalf("query %d diverged: (%v, %d) != (%v, %d)", q, o.seeds, o.cov, wantSeeds, wantCov)
		}
	}
}

// TestPooledStateDropsDecs pins what a pooled selection state holds: a
// purge in the paper's regime (few samples, each a large share of n)
// decodes into p scratch columns of n counters, and End returns the state
// to the pool without them.
func TestPooledStateDropsDecs(t *testing.T) {
	const n, p = 200, 2
	col := collectionOf(n, randomSets(3, n, 40, 0.5))
	coded := Transcode(col, StoreCoded, p)
	b := NewCodedCoverage(coded, rrr.BuildIndexCoded(coded, p), nil, p)
	if _, _, err := b.Start(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Purge(0); err != nil {
		t.Fatal(err)
	}
	st := b.localState
	if len(st.decs) != p*n {
		t.Fatalf("a purge of %d-member samples held %d scratch counters, want the %d of a dense purge",
			coded.TotalSize()/int64(coded.Count()), len(st.decs), p*n)
	}
	b.End()
	if st.decs != nil {
		t.Fatalf("the pooled state still holds %d scratch counters", len(st.decs))
	}
}

// TestPooledStateForgetsAudience runs targeted selections over disjoint
// audiences one after another, so each takes the state the last one
// pooled: each must count only its own audience's samples, as CoverageOf
// does without a pool.
func TestPooledStateForgetsAudience(t *testing.T) {
	col := rrrCollection(testGraph(88, 120, 900), 0xfeed, 300)
	n := col.NumVertices()
	idx := rrr.BuildIndex(col, 1)
	coded := Transcode(col, StoreCoded, 1)
	cidx := rrr.BuildIndexCoded(coded, 1)
	roots := RootsRange(1, 0, col.Count(), n, 1)
	for _, first := range []int{0, 1, 2, 0} {
		var audience []graph.Vertex
		for v := first; v < n; v += 3 {
			audience = append(audience, graph.Vertex(v))
		}
		for name, be := range map[string]Coverage[int32]{
			"flat":  NewFlatCoverage(col, idx, roots, 2),
			"coded": NewCodedCoverage(coded, cidx, roots, 2),
		} {
			res, err := Greedy(be, n, Query{K: 5, Audience: audience}, nil)
			if err != nil {
				t.Fatal(err)
			}
			covered, eligible, err := CoverageOf(col.Count(), idx, roots, res.Seeds, audience)
			if err != nil || res.Covered != covered || res.Eligible != eligible {
				t.Fatalf("%s, audience from %d: covered %d of %d eligible, CoverageOf says %d of %d (%v)",
					name, first, res.Covered, res.Eligible, covered, eligible, err)
			}
		}
	}
}

// TestRunCollectMatchesRun checks the sketch-building entry point returns
// the very collection and index the run selected over: same Result, and a
// re-selection over the returned sketch reproduces the seeds.
func TestRunCollectMatchesRun(t *testing.T) {
	g := testGraph(91, 90, 700)
	opt := Options{K: 8, Epsilon: 0.5, Model: diffuse.IC, Workers: 2, Seed: 5}
	want, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, col, idx, err := RunCollect(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Seeds, want.Seeds) || got.Theta != want.Theta {
		t.Fatalf("RunCollect result diverged from Run: %v vs %v", got.Seeds, want.Seeds)
	}
	if col.Count() != got.SamplesGenerated {
		t.Fatalf("returned collection has %d samples, result says %d", col.Count(), got.SamplesGenerated)
	}
	reSeeds, _ := SelectSeedsIndexed(col, idx, opt.K, 2)
	if !slices.Equal(reSeeds, want.Seeds) {
		t.Fatalf("re-selection over returned sketch gave %v, want %v", reSeeds, want.Seeds)
	}
}
