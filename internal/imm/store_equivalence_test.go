package imm

import (
	"fmt"
	"slices"
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/metrics"
	"influmax/internal/rrr"
)

// TestStoreEquivalence is the acceptance gate of the byte-coded store: over
// four fixed-seed graphs, the IC, LT and weighted-cascade configurations,
// and one and four workers, the sketch RunSketch keeps under either
// labeling must select byte-identical seeds, coverage and theta
// bookkeeping to RunCollect's flat arena with the same options, and hold
// them in fewer bytes. The coded path differs only in the representation
// the selection reads — the DESIGN.md §13 determinism argument says that
// cannot move a single seed, and this test is that argument made
// executable. Run selects over the samples as drawn, the arena or, where
// the draw is dense, the bit matrix, and must agree with all of them; the
// fixtures must reach both regimes.
func TestStoreEquivalence(t *testing.T) {
	type config struct {
		name  string
		model diffuse.Model
		prep  func(*graph.Graph)
	}
	configs := []config{
		{"IC", diffuse.IC, func(*graph.Graph) {}},
		{"LT", diffuse.LT, func(g *graph.Graph) { g.NormalizeLT() }},
		{"WC", diffuse.IC, func(g *graph.Graph) { g.AssignWeightedCascade() }},
	}
	graphs := []struct {
		seed uint64
		n, m int
	}{
		{101, 150, 1200},
		{202, 80, 250},
		{303, 300, 3000},
		// Sparse enough that the density rule keeps every
		// configuration's draw on lists.
		{404, 400, 600},
	}
	dense, sparse := 0, 0
	for _, gc := range graphs {
		for _, cfg := range configs {
			for _, workers := range []int{1, 4} {
				g := testGraph(gc.seed, gc.n, gc.m)
				cfg.prep(g)
				opt := Options{K: 10, Epsilon: 0.5, Model: cfg.model, Workers: workers, Seed: gc.seed}
				name := fmt.Sprintf("graph %d %s w=%d", gc.seed, cfg.name, workers)

				flat, _, _, err := RunCollect(g, opt)
				if err != nil {
					t.Fatalf("%s collect: %v", name, err)
				}
				run, err := Run(g, opt)
				if err != nil {
					t.Fatalf("%s run: %v", name, err)
				}
				sameSelection(t, name+" run", run, flat)
				// A dense draw selects on its bit matrix, which is its own
				// index (DESIGN.md §13.6); a sparse one on RunCollect's
				// arena and index.
				if run.Store == StoreMatrix {
					dense++
					if run.IndexBytes != 0 {
						t.Fatalf("%s: matrix run reports %d index bytes", name, run.IndexBytes)
					}
				} else {
					sparse++
					if run.Store != StoreFlat || run.StoreBytes != flat.StoreBytes || run.IndexBytes != flat.IndexBytes {
						t.Fatalf("%s: run store %v %d B index %d B, arena %d B index %d B",
							name, run.Store, run.StoreBytes, run.IndexBytes, flat.StoreBytes, flat.IndexBytes)
					}
				}

				for _, store := range []StoreKind{StoreFlat, StoreCoded} {
					opt.Store = store
					coded, _, _, err := RunSketch(g, opt)
					if err != nil {
						t.Fatalf("%s sketch %v: %v", name, store, err)
					}
					sname := fmt.Sprintf("%s sketch %v", name, store)
					sameSelection(t, sname, coded, flat)
					// The coded store must actually have compressed: it is
					// smaller than the flat layout it reports as denominator,
					// and that denominator is the arena's actual footprint.
					if coded.Store != store {
						t.Fatalf("%s: labeling not stamped: %v", sname, coded.Store)
					}
					if coded.FlatStoreBytes != flat.StoreBytes {
						t.Fatalf("%s: FlatStoreBytes %d != arena StoreBytes %d", sname, coded.FlatStoreBytes, flat.StoreBytes)
					}
					if coded.StoreBytes >= flat.StoreBytes {
						t.Fatalf("%s: coded store %d B not below flat %d B", sname, coded.StoreBytes, flat.StoreBytes)
					}
					if coded.IndexBytes != flat.IndexBytes {
						t.Fatalf("%s: index bytes diverged %d != %d (index is label-invariant)",
							sname, coded.IndexBytes, flat.IndexBytes)
					}
				}
			}
		}
	}
	t.Logf("%d dense and %d sparse cases", dense, sparse)
	if dense == 0 || sparse == 0 {
		t.Fatalf("fixtures reach %d dense and %d sparse cases; the gate needs both regimes", dense, sparse)
	}
}

// sameSelection fails unless got selected want's seeds with want's
// coverage over the same theta and sample count.
func sameSelection(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.Seeds, want.Seeds) || got.CoverageFraction != want.CoverageFraction ||
		got.Theta != want.Theta || got.SamplesGenerated != want.SamplesGenerated {
		t.Fatalf("%s: seeds %v coverage %v theta %d samples %d, want %v %v %d %d",
			name, got.Seeds, got.CoverageFraction, got.Theta, got.SamplesGenerated,
			want.Seeds, want.CoverageFraction, want.Theta, want.SamplesGenerated)
	}
}

// TestRunSelectsOnDrawnSamples: Run selects over the samples as drawn and
// does not read Options.Store, so both labelings return the same Result —
// the flat arena and its index on a sparse draw, the bit matrix on a
// dense one — and the rrr/store-bytes gauge reads the footprint of the
// store the selection ran over.
func TestRunSelectsOnDrawnSamples(t *testing.T) {
	sparse := testGraph(50, 400, 600)
	sparse.AssignWeightedCascade()
	for _, c := range []struct {
		name string
		g    *graph.Graph
		want StoreKind
	}{{"sparse", sparse, StoreFlat}, {"dense", denseGraph(t), StoreMatrix}} {
		opt := Options{K: 10, Epsilon: 0.5, Model: diffuse.IC, Workers: 2, Seed: 3}
		_, col, idx, err := RunCollect(c.g, opt)
		if err != nil {
			t.Fatal(err)
		}
		wantStore, wantIndex := col.Bytes(), idx.Bytes()
		if c.want == StoreMatrix {
			wantStore, wantIndex = rrr.MatrixOf(col, 2).Bytes(), 0
		}
		var runs []*Result
		for _, store := range []StoreKind{StoreFlat, StoreCoded} {
			reg := metrics.NewRegistry()
			opt.Store, opt.Metrics = store, reg
			res, err := Run(c.g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Store != c.want || res.StoreBytes != wantStore || res.IndexBytes != wantIndex {
				t.Fatalf("%s %v: store %v %d B index %d B, want %v %d B index %d B",
					c.name, store, res.Store, res.StoreBytes, res.IndexBytes, c.want, wantStore, wantIndex)
			}
			if got := reg.Gauge("rrr/store-bytes").Value(); got != wantStore {
				t.Fatalf("%s %v: rrr/store-bytes %d, want %d", c.name, store, got, wantStore)
			}
			runs = append(runs, res)
		}
		flat, coded := runs[0], runs[1]
		sameSelection(t, c.name, coded, flat)
		if coded.FlatStoreBytes != flat.FlatStoreBytes || coded.LowerBound != flat.LowerBound ||
			coded.EstimatedSpread != flat.EstimatedSpread {
			t.Fatalf("%s: flat bytes %d/%d, lower bound %v/%v, spread %v/%v", c.name,
				coded.FlatStoreBytes, flat.FlatStoreBytes, coded.LowerBound, flat.LowerBound,
				coded.EstimatedSpread, flat.EstimatedSpread)
		}
	}
}

// TestRunSketchStoreFlatKeepsIdentity checks the StoreFlat sketch path: the
// resident store is byte-coded but identity-labeled, and still selects the
// exact flat seeds.
func TestRunSketchStoreFlatKeepsIdentity(t *testing.T) {
	g := testGraph(7, 100, 700)
	opt := Options{K: 6, Epsilon: 0.5, Model: diffuse.IC, Workers: 2, Seed: 7}
	res, col, idx, err := RunSketch(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if col.Relabeled() {
		t.Fatal("StoreFlat sketch came back relabeled")
	}
	if idx == nil || res.Store != StoreFlat {
		t.Fatalf("sketch run malformed: idx=%v store=%v", idx, res.Store)
	}
	want, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Seeds, want.Seeds) {
		t.Fatalf("sketch seeds %v != run seeds %v", res.Seeds, want.Seeds)
	}
}
