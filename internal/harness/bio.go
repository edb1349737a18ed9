package harness

import (
	"fmt"

	"influmax/internal/bio"
	"influmax/internal/centrality"
	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
)

// bioNetwork bundles one synthetic case-study network.
type bioNetwork struct {
	name string
	expr *bio.Expression
	g    *graph.Graph
	ps   []bio.Pathway
}

// buildBioNetworks synthesizes the two Section 5 networks: "cancer"
// (proteomic/transcriptomic tumor analog: more features, stronger modules)
// and "soil" (metabolomic/metatranscriptomic analog: fewer, noisier
// modules).
func buildBioNetworks(cfg Config) []bioNetwork {
	specs := []struct {
		name string
		ec   bio.ExprConfig
	}{
		{"cancer", bio.ExprConfig{Features: 2000, Samples: 80, Modules: 8, ModuleSize: 45, Signal: 0.8, Seed: cfg.Seed ^ 0xCA}},
		{"soil", bio.ExprConfig{Features: 1200, Samples: 50, Modules: 6, ModuleSize: 40, Signal: 0.7, Seed: cfg.Seed ^ 0x50}},
	}
	var out []bioNetwork
	for _, s := range specs {
		expr := bio.SyntheticExpression(s.ec)
		// Global-threshold inference: keep ~5 undirected edges per feature
		// on average, so degree tracks co-regulation strength.
		g := bio.InferNetworkTop(expr, 5*s.ec.Features)
		// Damp correlation scores into a near-critical diffusion regime:
		// raw within-module correlations (~0.7) would let a single seed
		// saturate a whole module, pushing IMM's remaining picks into the
		// background and flattening the comparison.
		g.ScaleWeights(0.035)
		ps := bio.SyntheticPathways(expr, s.ec.Modules, 0.15, cfg.Seed^0xDB)
		out = append(out, bioNetwork{name: s.name, expr: expr, g: g, ps: ps})
	}
	return out
}

// bioStudy regenerates the Section 5 case study: the top-k feature sets of IMM,
// degree centrality and betweenness centrality are compared by pathway
// enrichment (significant pathways at adjusted p < 0.05, and how many of
// them are planted ground-truth modules).
func bioStudy(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "Section 5",
		Title: "Case study: IMM vs centrality on co-expression networks",
		Note: "Synthetic module-structured omics (GENIE3 substituted by correlation inference); " +
			"enrichment by Fisher's exact test with BH adjustment at alpha = 0.05.",
		Header: []string{"Network", "Method", "Enriched pathways (adj p<0.05)", "Ground-truth modules recovered"},
	}
	for _, nw := range buildBioNetworks(cfg) {
		n := nw.g.NumVertices()
		// Scaled stand-in for the paper's k = 200 out of >10k features:
		// select 3% of the universe.
		kk := 3 * n / 100
		res, err := imm.Run(nw.g, imm.Options{K: kk, Epsilon: 0.13, Model: diffuse.IC, Workers: cfg.Workers, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		methods := []struct {
			name  string
			picks []graph.Vertex
		}{
			{"IMM", res.Seeds},
			{"degree", centrality.TopK(centrality.TotalDegree(nw.g), kk)},
			{"betweenness", centrality.TopK(centrality.Betweenness(nw.g, cfg.Workers), kk)},
		}
		for _, m := range methods {
			enr := bio.Enrich(m.picks, nw.ps, n)
			t.Add(nw.name, m.name,
				fmt.Sprintf("%d", bio.CountSignificant(enr, 0.05)),
				fmt.Sprintf("%d/%d", bio.TruePositives(enr, 0.05), nw.expr.Modules))
		}
	}
	return t, nil
}

// Driver is a named experiment generator.
type Driver struct {
	Name string
	Run  func(Config) (*Table, error)
}

// Drivers lists every experiment in paper order.
func Drivers() []Driver {
	return []Driver{
		{"fig1", fig1},
		{"table2", table2},
		{"fig2", fig2},
		{"fig3", fig3},
		{"fig4", fig4},
		{"fig5", fig5},
		{"fig6", fig6},
		{"fig7", fig7},
		{"fig8", fig8},
		{"table3", table3},
		{"bio", bioStudy},
		{"validate", validate},
		{"baselines", baselines},
	}
}
