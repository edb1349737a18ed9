// Command graphgen synthesizes graphs: either a scaled analog of one of
// the paper's eight SNAP datasets or a parametric random graph, with a
// chosen edge-weighting scheme, written as an edge list or binary file.
//
// Examples:
//
//	graphgen -dataset cit-HepTh -scale 0.05 -weights uniform -o hep.txt
//	graphgen -family rmat -n 10000 -m 80000 -weights wc -format bin -o g.bin
package main

import (
	"flag"
	"fmt"
	"os"

	"influmax/internal/cli"
	"influmax/internal/gen"
	"influmax/internal/graph"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "SNAP analog name (see -list)")
		family  = flag.String("family", "", "generator family: er, ba, ws, rmat")
		n       = flag.Int("n", 1000, "vertex count (parametric families)")
		m       = flag.Int("m", 8000, "edge count (er, rmat)")
		mPer    = flag.Int("mper", 8, "edges per new vertex (ba) / lattice degree (ws)")
		beta    = flag.Float64("beta", 0.1, "rewiring probability (ws)")
		scale   = flag.Float64("scale", 0.01, "dataset analog scale in (0,1]")
		seed    = flag.Uint64("seed", 1, "random seed")
		weights = flag.String("weights", "uniform", "weight scheme: uniform, const:<p>, wc, none")
		lt      = flag.Bool("lt", false, "normalize in-weights for the LT model")
		format  = flag.String("format", "txt", "output format: txt, bin")
		out     = flag.String("o", "", "output file (default stdout)")
		list    = flag.Bool("list", false, "list dataset analog names and exit")
	)
	flag.Parse()

	if *list {
		for _, d := range gen.Datasets() {
			fmt.Println(d.Name)
		}
		return
	}

	weigh, err := cli.Weighting(*weights, *seed)
	if err != nil {
		fatal("%v", err)
	}
	var g *graph.Graph
	switch {
	case *dataset != "":
		if g, err = cli.Generate(*dataset, *scale, *seed); err != nil {
			fatal("%v", err)
		}
	case *family != "":
		if g, err = cli.Family(*family, *n, *m, *mPer, *beta, *seed); err != nil {
			fatal("%v", err)
		}
	default:
		fatal("pass -dataset or -family (try -list)")
	}
	weigh(g)
	if *lt {
		g.NormalizeLT()
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("create %s: %v", *out, err)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "txt":
		err = graph.WriteEdgeList(w, g)
	case "bin":
		err = graph.WriteBinary(w, g)
	default:
		fatal("unknown -format %q", *format)
	}
	if err != nil {
		fatal("write: %v", err)
	}
	st := g.ComputeStats()
	fmt.Fprintf(os.Stderr, "graphgen: %d vertices, %d edges, avg degree %.2f, max degree %d\n",
		st.Vertices, st.Edges, st.AvgDegree, st.MaxDegree)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "graphgen: "+format+"\n", args...)
	os.Exit(1)
}
