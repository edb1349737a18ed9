package dist

import (
	"slices"
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/imm"
)

// TestDistStoreEquivalence pins the coded store on the sample-partitioned
// path: a StoreCoded run selects the exact seeds of the StoreFlat run, at
// every rank count, while each rank's local store shrinks below the flat
// layout it reports as the compression denominator.
func TestDistStoreEquivalence(t *testing.T) {
	g := testGraph(4, 120, 900)
	base := Options{K: 6, Epsilon: 0.5, Model: diffuse.IC, ThreadsPerRank: 2, Seed: 17}
	for _, p := range []int{1, 2, 4} {
		optFlat, optCoded := base, base
		optFlat.Store = imm.StoreFlat
		optCoded.Store = imm.StoreCoded
		flat := runDist(t, p, g, optFlat)
		coded := runDist(t, p, g, optCoded)
		for rank := range coded {
			if !slices.Equal(coded[rank].Seeds, flat[rank].Seeds) {
				t.Fatalf("p=%d rank %d: coded seeds %v != flat %v",
					p, rank, coded[rank].Seeds, flat[rank].Seeds)
			}
			if coded[rank].Theta != flat[rank].Theta ||
				coded[rank].CoverageFraction != flat[rank].CoverageFraction {
				t.Fatalf("p=%d rank %d: bookkeeping diverged", p, rank)
			}
			if coded[rank].Store != imm.StoreCoded || flat[rank].Store != imm.StoreFlat {
				t.Fatalf("p=%d rank %d: store kinds not stamped", p, rank)
			}
			if coded[rank].StoreBytes >= coded[rank].FlatStoreBytes {
				t.Fatalf("p=%d rank %d: coded store %d B not below flat layout %d B",
					p, rank, coded[rank].StoreBytes, coded[rank].FlatStoreBytes)
			}
			if coded[rank].FlatStoreBytes != flat[rank].StoreBytes {
				t.Fatalf("p=%d rank %d: FlatStoreBytes %d != flat run's %d",
					p, rank, coded[rank].FlatStoreBytes, flat[rank].StoreBytes)
			}
		}
	}
}

// TestDistStoreEquivalenceLT repeats the sample-partitioned gate under the
// LT model (the purge path is model-independent, but the samples differ).
func TestDistStoreEquivalenceLT(t *testing.T) {
	g := testGraph(8, 90, 600)
	g.NormalizeLT()
	base := Options{K: 4, Epsilon: 0.5, Model: diffuse.LT, ThreadsPerRank: 1, Seed: 6}
	optFlat, optCoded := base, base
	optFlat.Store = imm.StoreFlat
	optCoded.Store = imm.StoreCoded
	flat := runDist(t, 2, g, optFlat)
	coded := runDist(t, 2, g, optCoded)
	for rank := range coded {
		if !slices.Equal(coded[rank].Seeds, flat[rank].Seeds) {
			t.Fatalf("rank %d: coded seeds %v != flat %v", rank, coded[rank].Seeds, flat[rank].Seeds)
		}
	}
}
