package bio

import (
	"math"
	"testing"

	"influmax/internal/graph"
)

func smallConfig(seed uint64) ExprConfig {
	return ExprConfig{Features: 120, Samples: 60, Modules: 4, ModuleSize: 20, Signal: 0.8, Seed: seed}
}

func TestSyntheticExpressionShape(t *testing.T) {
	e := SyntheticExpression(smallConfig(1))
	if len(e.Values) != 120 || len(e.Values[0]) != 60 {
		t.Fatalf("matrix shape wrong")
	}
	counts := make(map[int]int)
	for _, m := range e.ModuleOf {
		counts[m]++
	}
	for m := 0; m < 4; m++ {
		if counts[m] != 20 {
			t.Fatalf("module %d has %d members, want 20", m, counts[m])
		}
	}
	if counts[-1] != 40 {
		t.Fatalf("background = %d, want 40", counts[-1])
	}
}

func TestWithinModuleCorrelationHigher(t *testing.T) {
	e := SyntheticExpression(smallConfig(2))
	// Average |corr| within module 0 must far exceed cross-module.
	within, cross := 0.0, 0.0
	nw, nc := 0, 0
	for a := 0; a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			within += math.Abs(pearson(e.Values[a], e.Values[b]))
			nw++
		}
		for b := 20; b < 40; b++ {
			cross += math.Abs(pearson(e.Values[a], e.Values[b]))
			nc++
		}
	}
	within /= float64(nw)
	cross /= float64(nc)
	if within < 2*cross {
		t.Fatalf("planted structure weak: within %.3f vs cross %.3f", within, cross)
	}
	// Expected within-module correlation is Signal^2 = 0.64.
	if within < 0.4 || within > 0.9 {
		t.Fatalf("within-module corr %.3f implausible for signal 0.8", within)
	}
}

func TestSyntheticExpressionPanics(t *testing.T) {
	for name, cfg := range map[string]ExprConfig{
		"no samples":  {Features: 10, Samples: 1, Signal: 0.5},
		"overfull":    {Features: 10, Samples: 5, Modules: 3, ModuleSize: 4, Signal: 0.5},
		"bad signal":  {Features: 10, Samples: 5, Signal: 1.0},
		"no features": {Features: 0, Samples: 5, Signal: 0.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			SyntheticExpression(cfg)
		}()
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if c := pearson(a, []float64{2, 4, 6, 8}); math.Abs(c-1) > 1e-12 {
		t.Fatalf("perfect corr = %v", c)
	}
	if c := pearson(a, []float64{4, 3, 2, 1}); math.Abs(c+1) > 1e-12 {
		t.Fatalf("perfect anticorr = %v", c)
	}
	if c := pearson(a, []float64{5, 5, 5, 5}); c != 0 {
		t.Fatalf("constant vector corr = %v", c)
	}
}

func TestInferNetworkRecoversModules(t *testing.T) {
	e := SyntheticExpression(smallConfig(3))
	const pairs = 120 * 5 / 2
	g := InferNetworkTop(e, pairs)
	if g.NumVertices() != 120 || g.NumEdges() != 2*pairs {
		t.Fatalf("network size = (%d, %d)", g.NumVertices(), g.NumEdges())
	}
	// Most edges out of module members should stay within their module.
	inModule, total := 0, 0
	for f := 0; f < 80; f++ {
		dsts, ws := g.OutNeighbors(graph.Vertex(f))
		for i, v := range dsts {
			total++
			if e.ModuleOf[f] == e.ModuleOf[v] {
				inModule++
			}
			if ws[i] < 0 || ws[i] > 1 {
				t.Fatalf("edge weight %v out of [0,1]", ws[i])
			}
		}
	}
	if frac := float64(inModule) / float64(total); frac < 0.7 {
		t.Fatalf("only %.0f%% of module-member edges stay in module", 100*frac)
	}
}

func TestInferNetworkPanics(t *testing.T) {
	e := SyntheticExpression(smallConfig(4))
	defer func() {
		if recover() == nil {
			t.Fatal("edges = 0 accepted")
		}
	}()
	InferNetworkTop(e, 0)
}

func TestSyntheticPathways(t *testing.T) {
	e := SyntheticExpression(smallConfig(5))
	ps := SyntheticPathways(e, 6, 0.1, 7)
	if len(ps) != 4+6 {
		t.Fatalf("pathway count = %d, want 10", len(ps))
	}
	if ps[0].Name != "module-00" || ps[4].Name != "decoy-00" {
		t.Fatalf("pathway names wrong: %s %s", ps[0].Name, ps[4].Name)
	}
	for _, p := range ps {
		seen := make(map[graph.Vertex]bool)
		for _, v := range p.Members {
			if seen[v] {
				t.Fatalf("%s has duplicate member %d", p.Name, v)
			}
			seen[v] = true
			if int(v) >= 120 {
				t.Fatalf("%s member %d out of universe", p.Name, v)
			}
		}
	}
}

func TestEnrichFindsPlantedModule(t *testing.T) {
	e := SyntheticExpression(smallConfig(8))
	ps := SyntheticPathways(e, 8, 0.0, 9)
	// Select exactly module 2's features: its pathway must dominate.
	var selected []graph.Vertex
	for f, m := range e.ModuleOf {
		if m == 2 {
			selected = append(selected, graph.Vertex(f))
		}
	}
	res := Enrich(selected, ps, 120)
	if res[0].Pathway != "module-02" {
		t.Fatalf("top enrichment = %s, want module-02", res[0].Pathway)
	}
	if res[0].AdjP > 1e-6 {
		t.Fatalf("perfect overlap p-value too large: %v", res[0].AdjP)
	}
	if got := CountSignificant(res, 0.05); got < 1 {
		t.Fatalf("significant count = %d", got)
	}
	if tp := TruePositives(res, 0.05); tp < 1 {
		t.Fatalf("true positives = %d", tp)
	}
}

func TestEnrichRandomSelectionNotSignificant(t *testing.T) {
	e := SyntheticExpression(smallConfig(10))
	ps := SyntheticPathways(e, 8, 0.0, 11)
	// A selection of background-only features should enrich nothing
	// strongly (decoys may fluctuate, but BH at 1e-3 should hold).
	var selected []graph.Vertex
	for f, m := range e.ModuleOf {
		if m == -1 {
			selected = append(selected, graph.Vertex(f))
			if len(selected) == 20 {
				break
			}
		}
	}
	res := Enrich(selected, ps, 120)
	if got := CountSignificant(res, 1e-6); got != 0 {
		t.Fatalf("background selection produced %d ultra-significant pathways", got)
	}
}

func TestEnrichEmptySelection(t *testing.T) {
	e := SyntheticExpression(smallConfig(12))
	ps := SyntheticPathways(e, 2, 0, 13)
	res := Enrich(nil, ps, 120)
	for _, r := range res {
		if r.Overlap != 0 || r.P < 0.999 {
			t.Fatalf("empty selection enriched %s: %+v", r.Pathway, r)
		}
	}
}
