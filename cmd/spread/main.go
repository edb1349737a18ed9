// Command spread evaluates the expected influence of a given seed set by
// parallel Monte Carlo simulation — the oracle behind Figure 1's
// "activated nodes" axis.
//
//	spread -graph net.txt -model IC -seeds 4,17,42 -trials 10000
//	spread -dataset cit-HepTh -scale 0.05 -seeds 0,1,2
package main

import (
	"flag"
	"fmt"
	"os"

	"influmax/internal/cli"
	"influmax/internal/diffuse"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "edge-list graph file")
		binary    = flag.Bool("bin", false, "input file is binary")
		dataset   = flag.String("dataset", "", "generate a SNAP analog instead")
		scale     = flag.Float64("scale", 0.01, "analog scale")
		modelStr  = flag.String("model", "IC", "diffusion model: IC or LT")
		seedsStr  = flag.String("seeds", "", "comma-separated seed vertices")
		trials    = flag.Int("trials", 10000, "Monte Carlo cascades")
		workers   = flag.Int("workers", 0, "threads (0 = all cores)")
		seed      = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	model, err := diffuse.ParseModel(*modelStr)
	if err != nil {
		fatal("%v", err)
	}
	g, err := cli.LoadGraph(cli.GraphInput{
		Path: *graphPath, Binary: *binary, Dataset: *dataset, Scale: *scale, Seed: *seed, Weights: "uniform",
	})
	if err != nil {
		fatal("%v", err)
	}
	if model == diffuse.LT {
		g.NormalizeLT()
	}

	seeds, err := cli.ParseVertexList(*seedsStr, g.NumVertices())
	if err != nil {
		fatal("-seeds: %v", err)
	}
	if len(seeds) == 0 {
		fatal("pass -seeds v1,v2,...")
	}

	mean, se := diffuse.EstimateSpread(g, model, seeds, *trials, *workers, *seed)
	fmt.Printf("seeds: %v\n", seeds)
	fmt.Printf("expected spread (%s, %d trials): %.2f ± %.2f (95%% CI)\n", model, *trials, mean, 2*se)
	fmt.Printf("fraction of graph: %.2f%%\n", 100*mean/float64(g.NumVertices()))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spread: "+format+"\n", args...)
	os.Exit(1)
}
