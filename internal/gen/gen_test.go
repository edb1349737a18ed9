package gen

import (
	"math"
	"testing"

	"influmax/internal/graph"
)

func noSelfLoops(t *testing.T, g *graph.Graph) {
	t.Helper()
	for u := 0; u < g.NumVertices(); u++ {
		dsts, _ := g.OutNeighbors(graph.Vertex(u))
		for _, v := range dsts {
			if int(v) == u {
				t.Fatalf("self loop at %d", u)
			}
		}
	}
}

func TestErdosRenyiSize(t *testing.T) {
	g := ErdosRenyi(100, 500, 1)
	if g.NumVertices() != 100 || g.NumEdges() != 500 {
		t.Fatalf("ER size = (%d, %d)", g.NumVertices(), g.NumEdges())
	}
	noSelfLoops(t, g)
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a, b := ErdosRenyi(50, 200, 7), ErdosRenyi(50, 200, 7)
	for v := 0; v < 50; v++ {
		d1, _ := a.OutNeighbors(graph.Vertex(v))
		d2, _ := b.OutNeighbors(graph.Vertex(v))
		if len(d1) != len(d2) {
			t.Fatal("ER not deterministic")
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatal("ER not deterministic")
			}
		}
	}
}

func TestBarabasiAlbertShape(t *testing.T) {
	g := BarabasiAlbert(2000, 5, 2)
	if g.NumVertices() != 2000 {
		t.Fatalf("BA n = %d", g.NumVertices())
	}
	noSelfLoops(t, g)
	s := g.ComputeStats()
	// Preferential attachment must produce a hub far above the average
	// total degree.
	maxTotal := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(graph.Vertex(v)) + g.InDegree(graph.Vertex(v)); d > maxTotal {
			maxTotal = d
		}
	}
	if float64(maxTotal) < 6*s.AvgDegree {
		t.Fatalf("BA lacks hubs: max total degree %d vs avg %f", maxTotal, s.AvgDegree)
	}
}

func TestWattsStrogatzNoRewire(t *testing.T) {
	g := WattsStrogatz(30, 3, 0, 3)
	// Pure ring lattice: every vertex has out-degree exactly k and points
	// to its 3 clockwise neighbors.
	for u := 0; u < 30; u++ {
		if g.OutDegree(graph.Vertex(u)) != 3 {
			t.Fatalf("WS degree at %d = %d", u, g.OutDegree(graph.Vertex(u)))
		}
		dsts, _ := g.OutNeighbors(graph.Vertex(u))
		for j, v := range dsts {
			if int(v) != (u+j+1)%30 {
				t.Fatalf("WS lattice broken at %d: %v", u, dsts)
			}
		}
	}
}

func TestWattsStrogatzRewired(t *testing.T) {
	g := WattsStrogatz(200, 4, 0.3, 5)
	noSelfLoops(t, g)
	if g.NumEdges() != 800 {
		t.Fatalf("WS edges = %d, want 800", g.NumEdges())
	}
	// With beta > 0 some edge must leave the lattice.
	rewired := false
	for u := 0; u < 200 && !rewired; u++ {
		dsts, _ := g.OutNeighbors(graph.Vertex(u))
		for _, v := range dsts {
			d := (int(v) - u + 200) % 200
			if d < 1 || d > 4 {
				rewired = true
			}
		}
	}
	if !rewired {
		t.Fatal("beta=0.3 produced a pure lattice")
	}
}

func TestRMATSizeAndSkew(t *testing.T) {
	g := RMAT(1000, 8000, 0.57, 0.19, 0.19, 4)
	if g.NumVertices() != 1000 || g.NumEdges() != 8000 {
		t.Fatalf("RMAT size = (%d, %d)", g.NumVertices(), g.NumEdges())
	}
	noSelfLoops(t, g)
	er := ErdosRenyi(1000, 8000, 4)
	if RMATMax := g.ComputeStats().MaxDegree; RMATMax <= 2*er.ComputeStats().MaxDegree {
		t.Fatalf("RMAT skew (%d) not clearly above ER (%d)", RMATMax, er.ComputeStats().MaxDegree)
	}
}

func TestRMATNonPowerOfTwo(t *testing.T) {
	g := RMAT(777, 3000, 0.5, 0.2, 0.2, 9)
	if g.NumVertices() != 777 || g.NumEdges() != 3000 {
		t.Fatalf("RMAT non-pow2 size = (%d, %d)", g.NumVertices(), g.NumEdges())
	}
	noSelfLoops(t, g)
}

func TestGeneratorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"ER n<2":        func() { ErdosRenyi(1, 5, 1) },
		"BA n<=mPer":    func() { BarabasiAlbert(5, 5, 1) },
		"WS bad beta":   func() { WattsStrogatz(10, 2, 1.5, 1) },
		"WS NaN beta":   func() { WattsStrogatz(10, 2, math.NaN(), 1) },
		"RMAT bad prob": func() { RMAT(10, 5, 0.8, 0.2, 0.2, 1) },
		"RMAT m>n(n-1)": func() { RMAT(4, 13, 0.5, 0.2, 0.2, 1) },
		"scale>1":       func() { Datasets()[0].Generate(2, 1) },
		"scale NaN":     func() { Datasets()[0].Generate(math.NaN(), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDatasetsTableMatchesPaper(t *testing.T) {
	ds := Datasets()
	if len(ds) != 8 {
		t.Fatalf("want 8 datasets, got %d", len(ds))
	}
	// Spot-check the Table 2 rows.
	if ds[0].Name != "cit-HepTh" || ds[0].Vertices != 27770 || ds[0].Edges != 352807 {
		t.Fatalf("cit-HepTh row wrong: %+v", ds[0])
	}
	if ds[7].Name != "com-Orkut" || ds[7].Vertices != 3072441 || ds[7].Edges != 117185083 {
		t.Fatalf("com-Orkut row wrong: %+v", ds[7])
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("soc-Pokec")
	if err != nil || d.Vertices != 1632803 {
		t.Fatalf("ByName: %v %+v", err, d)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestGeneratePreservesAvgDegree(t *testing.T) {
	for _, d := range Datasets() {
		g := d.Generate(0.01, 11)
		if g.NumVertices() < 64 {
			t.Fatalf("%s: analog too small (%d)", d.Name, g.NumVertices())
		}
		wantAvg := float64(d.Edges) / float64(d.Vertices)
		gotAvg := g.ComputeStats().AvgDegree
		if gotAvg < wantAvg*0.7 || gotAvg > wantAvg*1.4 {
			t.Errorf("%s: analog avg degree %.2f, original %.2f", d.Name, gotAvg, wantAvg)
		}
	}
}

func TestGenerateMinimumSize(t *testing.T) {
	d := Datasets()[0]
	g := d.Generate(0.0001, 1)
	if g.NumVertices() < 64 {
		t.Fatalf("minimum size not enforced: %d", g.NumVertices())
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(500, 2000, 0.55, 0.2, 0.2, 42)
	b := RMAT(500, 2000, 0.55, 0.2, 0.2, 42)
	for v := 0; v < 500; v++ {
		d1, _ := a.OutNeighbors(graph.Vertex(v))
		d2, _ := b.OutNeighbors(graph.Vertex(v))
		if len(d1) != len(d2) {
			t.Fatal("RMAT not deterministic")
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatal("RMAT not deterministic")
			}
		}
	}
	c := RMAT(500, 2000, 0.55, 0.2, 0.2, 43)
	same := true
	for v := 0; v < 500 && same; v++ {
		d1, _ := a.OutNeighbors(graph.Vertex(v))
		d3, _ := c.OutNeighbors(graph.Vertex(v))
		if len(d1) != len(d3) {
			same = false
			break
		}
		for i := range d1 {
			if d1[i] != d3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical RMAT graphs")
	}
}

func TestBarabasiAlbertEdgeCount(t *testing.T) {
	g := BarabasiAlbert(100, 4, 7)
	// Seed clique contributes mPer+1 edges; each later vertex adds mPer.
	want := int64(5 + (100-5)*4)
	if g.NumEdges() != want {
		t.Fatalf("BA edges = %d, want %d", g.NumEdges(), want)
	}
}
