package dist

import (
	"slices"
	"sync"
	"testing"
	"time"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/mpi"
)

// TestDistWirePinned pins IMMdist's message schedule. The injector's coins
// hash each message's (peer, tag, sequence number), so the counters below
// move if a collective changes its tree, its tags or its message count —
// which a run-twice comparison cannot see. The run covers the k+1 coverage
// AllReduces and the GatherBytes of Report.
func TestDistWirePinned(t *testing.T) {
	g := testGraph(12, 80, 500)
	opt := Options{K: 5, Epsilon: 0.5, Model: diffuse.IC, Seed: 23, ThreadsPerRank: 1}
	plan := mpi.FaultPlan{Seed: 7, DelayProb: 0.2, MaxDelay: time.Millisecond,
		DropProb: 0.1, MaxRedeliver: 3, DupProb: 0.1, ReorderProb: 0.1}
	const p = 4
	comms := mpi.NewLocalCluster(p)
	results := make([]*Result, p)
	after := make([]mpi.CommStats, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := mpi.WithFaults(comms[rank], plan)
			defer c.Close()
			if results[rank], errs[rank] = Run(c, g, opt); errs[rank] != nil {
				return
			}
			_, errs[rank] = Report(c, opt, results[rank])
			after[rank] = mpi.StatsOf(c)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	wantSeeds := []graph.Vertex{39, 77, 29, 75, 8}
	if got := results[0].Seeds; !slices.Equal(got, wantSeeds) {
		t.Errorf("seeds %v, want %v", got, wantSeeds)
	}
	wantRun := mpi.CommStats{Sends: 24, DelaysInjected: 4, DropsInjected: 3, DupsInjected: 1, ReordersInjected: 2}
	if got := results[0].CommStats; got != wantRun {
		t.Errorf("rank 0 stats after Run:\n  got  %+v\n  want %+v", got, wantRun)
	}
	// Rank 0 roots the gather and only receives; the other ranks' sends
	// carry the gather tag through the injector.
	wantReport := []mpi.CommStats{
		wantRun,
		{Sends: 13, DelaysInjected: 1, DropsInjected: 1, DupsInjected: 2, ReordersInjected: 2},
		{Sends: 25, DelaysInjected: 3, DropsInjected: 2, DupsInjected: 4, ReordersInjected: 3},
		{Sends: 13, DelaysInjected: 2, DupsInjected: 2},
	}
	for r := range after {
		if after[r] != wantReport[r] {
			t.Errorf("rank %d stats after Report:\n  got  %+v\n  want %+v", r, after[r], wantReport[r])
		}
	}
}
