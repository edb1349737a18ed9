package dist

import (
	"slices"
	"sync"
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/mpi"
	"influmax/internal/rrr"
)

// TestDistIndexMatchesFreshBuild: each rank's final index is the one its
// estimation rounds extended, and equals a fresh build over the rank's
// shard.
func TestDistIndexMatchesFreshBuild(t *testing.T) {
	g := testGraph(4, 120, 900)
	opt := Options{K: 6, Epsilon: 0.5, Model: diffuse.IC, ThreadsPerRank: 2, Seed: 17}
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
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		fresh := rrr.BuildIndex(st.col, 1)
		if st.idx.Count() != fresh.Count() || st.idx.Entries() != fresh.Entries() {
			t.Fatalf("rank %d: index covers %d samples, %d entries; shard %d, %d",
				r, st.idx.Count(), st.idx.Entries(), fresh.Count(), fresh.Entries())
		}
		for v := 0; v < g.NumVertices(); v++ {
			if !slices.Equal(st.idx.SamplesOf(graph.Vertex(v)), fresh.SamplesOf(graph.Vertex(v))) {
				t.Fatalf("rank %d: vertex %d's incidence differs from a fresh build", r, v)
			}
		}
	}
}
