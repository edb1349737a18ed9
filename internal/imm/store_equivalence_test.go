package imm

import (
	"slices"
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
)

// TestStoreEquivalence is the acceptance gate of the byte-coded store: over
// four fixed-seed graphs, the IC, LT and weighted-cascade configurations,
// and one and four workers, a StoreCoded run must return byte-identical
// seeds, coverage and theta bookkeeping to the StoreFlat run with the same
// options. The coded path differs only in the representation the selection
// reads — the DESIGN.md §13 determinism argument says that cannot move a
// single seed, and this test is that argument made executable. Where the
// draw is dense, Run selects on the bit matrix under either store, so the
// coded and flat selections are RunSketch's and RunCollect's; the fixtures
// must reach both regimes.
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

				opt.Store = StoreFlat
				flat, err := Run(g, opt)
				if err != nil {
					t.Fatalf("graph %d %s w=%d flat: %v", gc.seed, cfg.name, workers, err)
				}
				opt.Store = StoreCoded
				coded, err := Run(g, opt)
				if err != nil {
					t.Fatalf("graph %d %s w=%d coded: %v", gc.seed, cfg.name, workers, err)
				}

				if !slices.Equal(coded.Seeds, flat.Seeds) {
					t.Fatalf("graph %d %s w=%d: coded seeds %v != flat %v",
						gc.seed, cfg.name, workers, coded.Seeds, flat.Seeds)
				}
				if coded.CoverageFraction != flat.CoverageFraction ||
					coded.Theta != flat.Theta ||
					coded.SamplesGenerated != flat.SamplesGenerated {
					t.Fatalf("graph %d %s w=%d: bookkeeping diverged: coverage %v/%v theta %d/%d samples %d/%d",
						gc.seed, cfg.name, workers,
						coded.CoverageFraction, flat.CoverageFraction,
						coded.Theta, flat.Theta,
						coded.SamplesGenerated, flat.SamplesGenerated)
				}
				// A dense draw selects on its bit matrix whatever opt.Store
				// says: both runs report the matrix, one footprint and no
				// index (DESIGN.md §13.6). The stores the two runs name are
				// then compared through RunCollect, which selects over the
				// flat arena, and RunSketch, which selects over the coded
				// store; both must also agree with the matrix selection.
				if flat.Store == StoreMatrix || coded.Store == StoreMatrix {
					dense++
					if coded.Store != flat.Store || coded.StoreBytes != flat.StoreBytes ||
						coded.FlatStoreBytes != flat.FlatStoreBytes || coded.IndexBytes != 0 || flat.IndexBytes != 0 {
						t.Fatalf("graph %d %s w=%d: dense runs diverged: store %v/%v, %d/%d B, flat %d/%d B, index %d/%d B",
							gc.seed, cfg.name, workers, coded.Store, flat.Store, coded.StoreBytes, flat.StoreBytes,
							coded.FlatStoreBytes, flat.FlatStoreBytes, coded.IndexBytes, flat.IndexBytes)
					}
					matrix := flat
					if flat, _, _, err = RunCollect(g, opt); err != nil {
						t.Fatalf("graph %d %s w=%d collect: %v", gc.seed, cfg.name, workers, err)
					}
					if coded, _, _, err = RunSketch(g, opt); err != nil {
						t.Fatalf("graph %d %s w=%d sketch: %v", gc.seed, cfg.name, workers, err)
					}
					for _, r := range []*Result{flat, coded} {
						if !slices.Equal(r.Seeds, matrix.Seeds) || r.CoverageFraction != matrix.CoverageFraction ||
							r.Theta != matrix.Theta || r.SamplesGenerated != matrix.SamplesGenerated {
							t.Fatalf("graph %d %s w=%d: %v seeds %v coverage %v theta %d samples %d, matrix %v %v %d %d",
								gc.seed, cfg.name, workers, r.Store, r.Seeds, r.CoverageFraction, r.Theta, r.SamplesGenerated,
								matrix.Seeds, matrix.CoverageFraction, matrix.Theta, matrix.SamplesGenerated)
						}
					}
				} else {
					sparse++
				}
				// The coded run must actually have compressed: its store is
				// smaller than the flat layout it reports as denominator, and
				// that denominator matches the flat run's actual footprint.
				if coded.Store != StoreCoded || flat.Store != StoreFlat {
					t.Fatalf("store kinds not stamped: %v / %v", coded.Store, flat.Store)
				}
				if coded.FlatStoreBytes != flat.StoreBytes {
					t.Fatalf("graph %d %s w=%d: coded FlatStoreBytes %d != flat StoreBytes %d",
						gc.seed, cfg.name, workers, coded.FlatStoreBytes, flat.StoreBytes)
				}
				if coded.StoreBytes >= flat.StoreBytes {
					t.Fatalf("graph %d %s w=%d: coded store %d B not below flat %d B",
						gc.seed, cfg.name, workers, coded.StoreBytes, flat.StoreBytes)
				}
				if coded.IndexBytes != flat.IndexBytes {
					t.Fatalf("graph %d %s w=%d: index bytes diverged %d != %d (index is label-invariant)",
						gc.seed, cfg.name, workers, coded.IndexBytes, flat.IndexBytes)
				}
			}
		}
	}
	t.Logf("%d dense and %d sparse cases", dense, sparse)
	if dense == 0 || sparse == 0 {
		t.Fatalf("fixtures reach %d dense and %d sparse cases; the gate needs both regimes", dense, sparse)
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
