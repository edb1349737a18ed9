// Command biostudy runs the Section 5 biology case study end to end:
// synthesize module-structured omics measurements, infer a co-expression
// network (the GENIE3 stand-in), select influential features with IMM and
// with the centrality comparators, and score all of them by
// pathway-enrichment analysis against the planted ground truth.
//
//	biostudy -features 2000 -samples 80 -modules 8 -k 60
package main

import (
	"flag"
	"fmt"
	"os"

	"influmax/internal/bio"
	"influmax/internal/centrality"
	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
)

func main() {
	var (
		features = flag.Int("features", 1500, "measured entities (transcripts/proteins/metabolites)")
		samples  = flag.Int("samples", 70, "experiments")
		modules  = flag.Int("modules", 8, "planted co-regulated modules")
		modSize  = flag.Int("modsize", 40, "features per module")
		signal   = flag.Float64("signal", 0.8, "module loading in (0,1)")
		k        = flag.Int("k", 0, "selection budget (0 = 3% of features)")
		eps      = flag.Float64("eps", 0.13, "IMM accuracy")
		decoys   = flag.Int("decoys", 8, "decoy pathways")
		noise    = flag.Float64("noise", 0.15, "pathway membership noise")
		damp     = flag.Float64("damp", 0.035, "weight damping into the diffusive regime")
		alpha    = flag.Float64("alpha", 0.05, "enrichment significance level (BH-adjusted)")
		seed     = flag.Uint64("seed", 2026, "random seed")
		workers  = flag.Int("workers", 0, "threads (0 = all cores)")
		top      = flag.Int("top", 5, "top enrichments to print per method")
	)
	flag.Parse()

	cfg := bio.ExprConfig{
		Features: *features, Samples: *samples,
		Modules: *modules, ModuleSize: *modSize,
		Signal: *signal, Seed: *seed,
	}
	fmt.Printf("synthesizing %d features x %d samples (%d modules of %d, signal %.2f)\n",
		cfg.Features, cfg.Samples, cfg.Modules, cfg.ModuleSize, cfg.Signal)
	expr := bio.SyntheticExpression(cfg)

	fmt.Println("inferring co-expression network (correlation stand-in for GENIE3)...")
	g := bio.InferNetworkTop(expr, 5*cfg.Features)
	g.ScaleWeights(float32(*damp))
	st := g.ComputeStats()
	fmt.Printf("network: %d vertices, %d edges, max degree %d\n", st.Vertices, st.Edges, st.MaxDegree)

	kk := *k
	if kk <= 0 {
		kk = 3 * cfg.Features / 100
	}
	pathways := bio.SyntheticPathways(expr, *decoys, *noise, *seed^0xDB)

	res, err := imm.Run(g, imm.Options{
		K: kk, Epsilon: *eps, Model: diffuse.IC, Workers: *workers, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "biostudy: %v\n", err)
		os.Exit(1)
	}

	methods := []struct {
		name  string
		picks []graph.Vertex
	}{
		{fmt.Sprintf("IMM (k=%d, eps=%.2f)", kk, *eps), res.Seeds},
		{"degree centrality", centrality.TopK(centrality.TotalDegree(g), kk)},
		{"betweenness centrality", centrality.TopK(centrality.Betweenness(g, *workers), kk)},
	}
	for _, m := range methods {
		enr := bio.Enrich(m.picks, pathways, cfg.Features)
		fmt.Printf("\n%s: %d pathways enriched at adj p < %g; %d/%d ground-truth modules\n",
			m.name, bio.CountSignificant(enr, *alpha), *alpha,
			bio.TruePositives(enr, *alpha), cfg.Modules)
		for i := 0; i < *top && i < len(enr); i++ {
			e := enr[i]
			marker := " "
			if e.AdjP < *alpha {
				marker = "*"
			}
			fmt.Printf("  %s %-12s overlap %3d   p=%.3g adj=%.3g\n", marker, e.Pathway, e.Overlap, e.P, e.AdjP)
		}
	}
}
