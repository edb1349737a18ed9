package dist

import (
	"slices"
	"sync"
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/mpi"
	"influmax/internal/rrr"
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

// TestDistIndexMatchesFreshBuild: each rank's final index is the one its
// estimation rounds extended, and equals a fresh build over the rank's
// shard under either store.
func TestDistIndexMatchesFreshBuild(t *testing.T) {
	g := testGraph(4, 120, 900)
	for _, store := range []imm.StoreKind{imm.StoreFlat, imm.StoreCoded} {
		opt := Options{K: 6, Epsilon: 0.5, Model: diffuse.IC, ThreadsPerRank: 2, Seed: 17, Store: store}
		const p = 3
		comms := mpi.NewLocalCluster(p)
		states := make([]*state, p)
		errs := make([]error, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				_, states[rank], errs[rank] = run(comms[rank], g, opt)
			}(r)
		}
		wg.Wait()
		for r, st := range states {
			if errs[r] != nil {
				t.Fatalf("%s rank %d: %v", store, r, errs[r])
			}
			var fresh *rrr.Index
			if st.coded != nil {
				fresh = rrr.BuildIndexCoded(st.coded, 1)
			} else {
				fresh = rrr.BuildIndex(st.col, 1)
			}
			if st.idx.Count() != fresh.Count() || st.idx.Entries() != fresh.Entries() {
				t.Fatalf("%s rank %d: index covers %d samples, %d entries; shard %d, %d",
					store, r, st.idx.Count(), st.idx.Entries(), fresh.Count(), fresh.Entries())
			}
			for v := 0; v < g.NumVertices(); v++ {
				if !slices.Equal(st.idx.SamplesOf(graph.Vertex(v)), fresh.SamplesOf(graph.Vertex(v))) {
					t.Fatalf("%s rank %d: vertex %d's incidence differs from a fresh build", store, r, v)
				}
			}
		}
	}
}
