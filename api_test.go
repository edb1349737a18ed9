package influmax_test

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"influmax"
	"influmax/internal/baseline"
	"influmax/internal/centrality"
	"influmax/internal/diffuse"
	"influmax/internal/gen"
	"influmax/internal/graph"
	"influmax/internal/mpi"
)

// TestEndToEndWorkflow exercises the public facade the way the README's
// quickstart does: generate, weight, maximize, evaluate.
func TestEndToEndWorkflow(t *testing.T) {
	g := influmax.Generate("cit-HepTh", 0.01, 1)
	g.AssignUniform(7)
	if g.NumVertices() < 64 || g.NumEdges() == 0 {
		t.Fatalf("analog degenerate: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	res, err := influmax.Maximize(g, influmax.Options{K: 10, Epsilon: 0.5, Model: influmax.IC, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 10 {
		t.Fatalf("got %d seeds", len(res.Seeds))
	}
	mean, se := influmax.Spread(g, influmax.IC, res.Seeds, 5000, 0, 99)
	if mean < float64(len(res.Seeds)) {
		t.Fatalf("spread %v below seed count", mean)
	}
	// RIS estimate and simulation agree within noise.
	if diff := res.EstimatedSpread - mean; diff > 6*se+0.05*mean+1 || -diff > 6*se+0.05*mean+1 {
		t.Fatalf("estimates disagree: RIS %.1f vs MC %.1f", res.EstimatedSpread, mean)
	}
}

func TestPublicBuildersAndIO(t *testing.T) {
	b := influmax.NewBuilder(3)
	b.Add(0, 1, 0.9)
	b.Add(1, 2, 0.9)
	g := b.Build()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := influmax.ParseEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 2 {
		t.Fatalf("round trip lost edges: %d", g2.NumEdges())
	}
	var bin bytes.Buffer
	if err := graph.WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	if _, err := graph.ReadBinary(&bin); err != nil {
		t.Fatal(err)
	}
}

func TestPublicDistributedMatchesShared(t *testing.T) {
	g := influmax.Generate("soc-Epinions1", 0.002, 2)
	g.AssignUniform(5)
	ref, err := influmax.Maximize(g, influmax.Options{K: 5, Epsilon: 0.5, Model: influmax.IC, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	comms := influmax.LocalCluster(3)
	results := make([]*influmax.DistResult, 3)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank], errs[rank] = influmax.MaximizeDistributed(comms[rank], g, influmax.DistOptions{
				K: 5, Epsilon: 0.5, Model: influmax.IC, Seed: 3, ThreadsPerRank: 1,
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if !slices.Equal(results[0].Seeds, ref.Seeds) {
		t.Fatalf("distributed %v != shared %v", results[0].Seeds, ref.Seeds)
	}
}

func TestPublicFaultInjection(t *testing.T) {
	// Distributed IMM through the facade, with the transport wrapped in
	// the fault injector: parse a plan, run, read the counters back.
	plan, err := mpi.ParseFaultPlan("seed=7,delay=0.1/1ms,dup=0.2,reorder=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if s := plan.String(); s == "" {
		t.Fatal("plan renders empty")
	}
	g := influmax.Generate("cit-HepTh", 0.002, 3)
	g.AssignUniform(9)
	ref, err := influmax.Maximize(g, influmax.Options{K: 4, Epsilon: 0.5, Model: influmax.IC, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const p = 2
	comms := influmax.LocalCluster(p)
	results := make([]*influmax.DistResult, p)
	stats := make([]mpi.CommStats, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := mpi.WithFaults(comms[rank], plan)
			defer c.Close()
			results[rank], errs[rank] = influmax.MaximizeDistributed(c, g, influmax.DistOptions{
				K: 4, Epsilon: 0.5, Model: influmax.IC, Seed: 11, ThreadsPerRank: 1,
			})
			stats[rank] = mpi.StatsOf(c)
		}(r)
	}
	wg.Wait()
	var injected bool
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if !slices.Equal(results[r].Seeds, ref.Seeds) {
			t.Fatalf("rank %d under faults: %v != %v", r, results[r].Seeds, ref.Seeds)
		}
		injected = injected || stats[r].Injected()
	}
	if !injected {
		t.Fatal("no faults injected through the facade")
	}
}

func TestPublicBaselinesRun(t *testing.T) {
	g := gen.ErdosRenyi(40, 200, 1)
	g.AssignUniform(2)
	seeds, gains, err := influmax.CELF(g, influmax.IC, 3, 100, 2, 1)
	if err != nil || len(seeds) != 3 || len(gains) != 3 {
		t.Fatalf("CELF: %v %v %v", seeds, gains, err)
	}
	if got := influmax.TopDegree(g, 3); len(got) != 3 {
		t.Fatal("TopDegree")
	}
	if got := baseline.SingleDiscount(g, 3); len(got) != 3 {
		t.Fatal("SingleDiscount")
	}
	if got := influmax.DegreeDiscount(g, 3, 0.1); len(got) != 3 {
		t.Fatal("DegreeDiscount")
	}
	bc := centrality.Betweenness(g, 2)
	if len(bc) != 40 {
		t.Fatal("Betweenness length")
	}
	if got := centrality.TopK(bc, 5); len(got) != 5 {
		t.Fatal("TopCentral")
	}
}

func TestPublicGenerators(t *testing.T) {
	if len(influmax.DatasetNames()) != 8 {
		t.Fatal("dataset names")
	}
	for _, g := range []*influmax.Graph{
		gen.ErdosRenyi(64, 128, 1),
		gen.BarabasiAlbert(64, 3, 1),
		gen.WattsStrogatz(64, 3, 0.2, 1),
		gen.RMAT(64, 256, 0.5, 0.2, 0.2, 1),
	} {
		if g.NumVertices() != 64 {
			t.Fatalf("generator size %d", g.NumVertices())
		}
	}
}

func TestPublicModelParsing(t *testing.T) {
	m, err := diffuse.ParseModel("lt")
	if err != nil || m != influmax.LT {
		t.Fatal("ParseModel lt")
	}
	if _, err := diffuse.ParseModel("zz"); err == nil {
		t.Fatal("bad model accepted")
	}
}

func TestPublicPhaseAccess(t *testing.T) {
	g := gen.ErdosRenyi(100, 600, 3)
	g.AssignUniform(4)
	res, err := influmax.Maximize(g, influmax.Options{K: 3, Epsilon: 0.5, Model: influmax.IC, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := res.Phases.Get(influmax.PhaseEstimation) + res.Phases.Get(influmax.PhaseSampling) +
		res.Phases.Get(influmax.PhaseIndexBuild) + res.Phases.Get(influmax.PhaseSelect) +
		res.Phases.Get(influmax.PhaseOther)
	if total != res.Phases.Total() {
		t.Fatal("phase sum != total")
	}
}
