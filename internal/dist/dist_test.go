package dist

import (
	"math"
	"net"
	"slices"
	"sync"
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/mpi"
	"influmax/internal/rng"
)

func testGraph(seed uint64, n, m int) *graph.Graph {
	r := rng.New(rng.NewLCG(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			b.Add(graph.Vertex(u), graph.Vertex(v), 0)
		}
	}
	g := b.Build()
	g.AssignUniform(seed ^ 0xbeef)
	return g
}

// runDist executes a distributed run on a local cluster of p ranks and
// returns every rank's result.
func runDist(t *testing.T, p int, g *graph.Graph, opt Options) []*Result {
	t.Helper()
	comms := mpi.NewLocalCluster(p)
	results := make([]*Result, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank], errs[rank] = Run(comms[rank], g, opt)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results
}

func TestDistMatchesSharedMemoryIMM(t *testing.T) {
	// In PerSample mode the distributed run must select the exact seed set
	// of the shared-memory implementation, for any rank count.
	g := testGraph(1, 100, 700)
	ref, err := imm.Run(g, imm.Options{K: 6, Epsilon: 0.5, Model: diffuse.IC, Workers: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// ... and for any intra-rank thread count: the selection argmax and the
	// purge run on ThreadsPerRank workers.
	for _, p := range []int{1, 2, 3, 5} {
		for _, threads := range []int{1, 2, 4} {
			results := runDist(t, p, g, Options{K: 6, Epsilon: 0.5, Model: diffuse.IC, ThreadsPerRank: threads, Seed: 17})
			for rank, res := range results {
				if !slices.Equal(res.Seeds, ref.Seeds) {
					t.Fatalf("p=%d threads=%d rank %d: seeds %v != shared-memory %v", p, threads, rank, res.Seeds, ref.Seeds)
				}
				if res.Theta != ref.Theta {
					t.Fatalf("p=%d threads=%d rank %d: theta %d != %d", p, threads, rank, res.Theta, ref.Theta)
				}
			}
		}
	}
}

func TestDistAllRanksAgree(t *testing.T) {
	g := testGraph(2, 80, 600)
	results := runDist(t, 4, g, Options{K: 5, Epsilon: 0.5, Model: diffuse.IC, Seed: 3, ThreadsPerRank: 1})
	for rank := 1; rank < 4; rank++ {
		if !slices.Equal(results[rank].Seeds, results[0].Seeds) {
			t.Fatalf("rank %d seeds differ: %v vs %v", rank, results[rank].Seeds, results[0].Seeds)
		}
		if results[rank].CoverageFraction != results[0].CoverageFraction {
			t.Fatalf("rank %d coverage differs", rank)
		}
	}
}

func TestDistSamplePartitioning(t *testing.T) {
	g := testGraph(3, 60, 400)
	p := 3
	results := runDist(t, p, g, Options{K: 4, Epsilon: 0.5, Model: diffuse.IC, Seed: 5, ThreadsPerRank: 1})
	var local int64
	for _, res := range results {
		local += int64(res.LocalSamples)
	}
	if local != results[0].SamplesGenerated {
		t.Fatalf("local samples sum %d != global %d", local, results[0].SamplesGenerated)
	}
	if results[0].SamplesGenerated < results[0].Theta {
		t.Fatalf("generated %d < theta %d", results[0].SamplesGenerated, results[0].Theta)
	}
}

func TestDistLeapFrogMode(t *testing.T) {
	g := testGraph(4, 80, 500)
	results := runDist(t, 2, g, Options{K: 4, Epsilon: 0.5, Model: diffuse.IC, Seed: 9, RNG: imm.LeapFrog, ThreadsPerRank: 2})
	if len(results[0].Seeds) != 4 {
		t.Fatalf("leap-frog dist returned %d seeds", len(results[0].Seeds))
	}
	if !slices.Equal(results[0].Seeds, results[1].Seeds) {
		t.Fatal("leap-frog ranks disagree on seeds")
	}
}

func TestDistLTModel(t *testing.T) {
	g := testGraph(5, 100, 800)
	g.NormalizeLT()
	results := runDist(t, 2, g, Options{K: 5, Epsilon: 0.5, Model: diffuse.LT, Seed: 6, ThreadsPerRank: 1})
	if len(results[0].Seeds) != 5 {
		t.Fatalf("LT dist returned %d seeds", len(results[0].Seeds))
	}
}

func TestDistSpreadQuality(t *testing.T) {
	// The distributed coverage-based spread estimate must agree with a
	// forward Monte Carlo evaluation of the same seed set.
	g := testGraph(6, 70, 450)
	results := runDist(t, 3, g, Options{K: 4, Epsilon: 0.3, Model: diffuse.IC, Seed: 8, ThreadsPerRank: 1})
	res := results[0]
	fwd, se := diffuse.EstimateSpread(g, diffuse.IC, res.Seeds, 20000, 0, 11)
	if diff := math.Abs(res.EstimatedSpread - fwd); diff > 5*se+0.05*fwd+1 {
		t.Fatalf("dist spread %.2f vs forward %.2f", res.EstimatedSpread, fwd)
	}
}

func TestDistValidation(t *testing.T) {
	g := testGraph(7, 30, 100)
	comms := mpi.NewLocalCluster(1)
	for _, opt := range []Options{
		{K: 0, Epsilon: 0.5, Model: diffuse.IC},
		{K: 31, Epsilon: 0.5, Model: diffuse.IC},
		{K: 3, Epsilon: 1.5, Model: diffuse.IC},
	} {
		if _, err := Run(comms[0], g, opt); err == nil {
			t.Errorf("invalid options accepted: %+v", opt)
		}
	}
}

func TestDistPhaseTimings(t *testing.T) {
	g := testGraph(8, 60, 300)
	results := runDist(t, 2, g, Options{K: 3, Epsilon: 0.5, Model: diffuse.IC, Seed: 2, ThreadsPerRank: 1})
	if results[0].Phases.Total() <= 0 {
		t.Fatal("phase timings empty")
	}
}

func TestDistOverTCP(t *testing.T) {
	// End-to-end over real sockets: the same run as the local transport.
	g := testGraph(9, 60, 400)
	opt := Options{K: 3, Epsilon: 0.5, Model: diffuse.IC, Seed: 31, ThreadsPerRank: 1}
	refResults := runDist(t, 2, g, opt)

	addrs := make([]string, 2)
	lns := make([]net.Listener, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	results := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := mpi.DialTCP(mpi.TCPConfig{Rank: rank, Addrs: addrs})
			if err != nil {
				errs[rank] = err
				return
			}
			defer c.Close()
			results[rank], errs[rank] = Run(c, g, opt)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", r, err)
		}
	}
	if !slices.Equal(results[0].Seeds, refResults[0].Seeds) {
		t.Fatalf("tcp seeds %v != local-transport seeds %v", results[0].Seeds, refResults[0].Seeds)
	}
}
