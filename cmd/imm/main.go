// Command imm finds a maximum-influence seed set with the parallel IMM
// algorithm.
//
// Input is an edge list ("u v [w]" lines, '#' comments), a binary graph
// written by graphgen, or a generated SNAP analog:
//
//	imm -graph network.txt -k 50 -eps 0.5 -model IC -workers 8
//	imm -dataset com-Orkut -scale 0.005 -k 100 -eps 0.13 -verify 10000
//
// It prints the seed set, the estimated spread and the phase breakdown of
// Algorithm 1 (EstimateTheta / Sample / SelectSeeds / Other).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"influmax/internal/cli"
	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
	"influmax/internal/server"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", "edge-list or binary graph file")
		binary      = flag.Bool("bin", false, "input file is binary (graphgen -format bin)")
		dataset     = flag.String("dataset", "", "generate a SNAP analog instead of reading a file")
		scale       = flag.Float64("scale", 0.01, "analog scale")
		k           = flag.Int("k", 50, "seed set size")
		eps         = flag.Float64("eps", 0.5, "accuracy parameter (smaller = better approximation)")
		modelStr    = flag.String("model", "IC", "diffusion model: IC or LT")
		workers     = flag.Int("workers", 0, "threads (0 = all cores; 1 = sequential IMMopt)")
		seed        = flag.Uint64("seed", 1, "random seed")
		weights     = flag.String("weights", "uniform", "weight scheme when generating: uniform, wc, const:<p>, none")
		baseline    = flag.Bool("baseline", false, "run the Tang-style sequential baseline instead")
		leapfrog    = flag.Bool("leapfrog", false, "sample with the paper's engine: leap-frog RNG splitting, scalar kernel, static split (default: per-sample streams, fused kernel, work-stealing)")
		verify      = flag.Int("verify", 0, "if > 0, evaluate the seed set with this many Monte Carlo cascades")
		audience    = flag.String("audience", "", "comma-separated vertex ids: maximize influence over this audience only (targeted query mode)")
		budget      = flag.Float64("budget", 0, "total budget for cost-aware selection with unit costs (budgeted query mode; selection may stop before -k seeds)")
		blocked     = flag.String("blocked", "", "comma-separated vertex ids a rival already holds: excluded and their coverage pre-purged (competitive query mode)")
		jsonOut     = flag.Bool("json", false, "emit the result as JSON on stdout (machine-readable)")
		metricsJSON = flag.String("metrics-json", "", "write a structured RunReport (JSON, schema 1) to this file")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the maximization to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file after the run")
	)
	flag.Parse()

	if err := cli.ServePprof("imm", *pprofAddr); err != nil {
		fatal("%v", err)
	}

	model, err := diffuse.ParseModel(*modelStr)
	if err != nil {
		fatal("%v", err)
	}

	// With -metrics-json, a SIGINT/SIGTERM mid-run still leaves a report:
	// the handler flushes a partial one (configuration + whatever engine
	// counters have accumulated, Interrupted=true) before exiting. Armed
	// before the slow phases (graph load, maximization) so a kill at any
	// point is caught.
	var reg *metrics.Registry
	var disarm func()
	if *metricsJSON != "" {
		reg = metrics.NewRegistry()
		alg := "IMMmt"
		if *baseline {
			alg = "IMM"
		}
		disarm = cli.FlushOnSignal("imm", *metricsJSON, alg, func(rep *metrics.RunReport) {
			rep.Model = model.String()
			rep.K, rep.Epsilon, rep.Seed, rep.Workers = *k, *eps, *seed, *workers
			rep.Metrics = reg.Snapshot()
		})
	}

	g, err := cli.LoadGraph(cli.GraphInput{
		Path: *graphPath, Binary: *binary, Dataset: *dataset, Scale: *scale, Seed: *seed, Weights: *weights,
	})
	if err != nil {
		fatal("%v", err)
	}
	if model == diffuse.LT {
		g.NormalizeLT()
	}
	st := g.ComputeStats()
	if !*jsonOut {
		fmt.Printf("graph: %d vertices, %d edges, avg degree %.2f, max degree %d\n",
			st.Vertices, st.Edges, st.AvgDegree, st.MaxDegree)
	}

	if *audience != "" || *budget > 0 || *blocked != "" {
		// Query-diversity mode: build a resident sketch and run the general
		// selection shapes of DESIGN.md §17 over it.
		if err := runQueryMode(g, st, model, reg,
			*k, *eps, *seed, *workers, *audience, *budget, *blocked, *verify, *jsonOut); err != nil {
			fatal("%v", err)
		}
		return
	}

	opt := imm.Options{K: *k, Epsilon: *eps, Model: model, Workers: *workers, Seed: *seed}
	if *leapfrog {
		opt.RNG = imm.LeapFrog
	}
	if *metricsJSON != "" {
		opt.Metrics = reg
	}
	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal("%v", err)
	}
	var res *imm.Result
	if *baseline {
		res, err = imm.RunBaseline(g, opt)
	} else {
		res, err = imm.Run(g, opt)
	}
	if stopErr := stopProfiles(); stopErr != nil {
		fatal("%v", stopErr)
	}
	if err != nil {
		fatal("%v", err)
	}

	var verified *verifiedSpread
	if *verify > 0 {
		mean, se := diffuse.EstimateSpread(g, model, res.Seeds, *verify, *workers, *seed^0xe7a1)
		verified = &verifiedSpread{Mean: mean, StdErr: se, Trials: *verify}
	}

	if *metricsJSON != "" {
		disarm() // the run finished; the complete report supersedes the partial one
		rep := res.Report(opt)
		rep.Graph = metrics.GraphInfoFor(st)
		if verified != nil {
			rep.Verified = &metrics.VerifiedSpread{
				Mean: verified.Mean, StdErr: verified.StdErr, Trials: verified.Trials,
			}
		}
		if err := rep.WriteFile(*metricsJSON); err != nil {
			fatal("%v", err)
		}
	}

	if *jsonOut {
		out := jsonResult{
			Graph: jsonGraph{
				Vertices: st.Vertices, Edges: st.Edges,
				AvgDegree: st.AvgDegree, MaxDegree: st.MaxDegree,
			},
			Model: model.String(), K: *k, Epsilon: *eps, Workers: res.Workers,
			Seeds: res.Seeds, Theta: res.Theta, SamplesGenerated: res.SamplesGenerated,
			EstimatedSpread: res.EstimatedSpread, CoverageFraction: res.CoverageFraction,
			Store: res.Store.String(), StoreBytes: res.StoreBytes,
			FlatStoreBytes: res.FlatStoreBytes, TotalSeconds: res.Phases.Total().Seconds(),
			Verified: verified,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal("%v", err)
		}
		return
	}

	fmt.Printf("theta: %d (lower bound on OPT: %.1f); samples generated: %d; store: %.2f MB (%s)\n",
		res.Theta, res.LowerBound, res.SamplesGenerated, float64(res.StoreBytes)/(1<<20), res.Store)
	if res.Store != imm.StoreFlat && res.StoreBytes > 0 {
		fmt.Printf("store compression: %.2fx vs flat (%.2f MB)\n",
			float64(res.FlatStoreBytes)/float64(res.StoreBytes), float64(res.FlatStoreBytes)/(1<<20))
	}
	fmt.Printf("phases: %s (total %v, %d workers)\n", res.Phases.String(), res.Phases.Total(), res.Workers)
	fmt.Printf("estimated spread: %.1f vertices (coverage %.4f)\n", res.EstimatedSpread, res.CoverageFraction)
	fmt.Printf("seeds (selection order): %v\n", res.Seeds)
	if verified != nil {
		fmt.Printf("verified spread: %.1f ± %.1f (over %d cascades)\n",
			verified.Mean, 2*verified.StdErr, verified.Trials)
	}
}

// jsonGraph, verifiedSpread and jsonResult define the -json wire shape.
type jsonGraph struct {
	Vertices  int     `json:"vertices"`
	Edges     int64   `json:"edges"`
	AvgDegree float64 `json:"avgDegree"`
	MaxDegree int     `json:"maxDegree"`
}

type verifiedSpread struct {
	Mean   float64 `json:"mean"`
	StdErr float64 `json:"stdErr"`
	Trials int     `json:"trials"`
}

type jsonResult struct {
	Graph            jsonGraph       `json:"graph"`
	Model            string          `json:"model"`
	K                int             `json:"k"`
	Epsilon          float64         `json:"epsilon"`
	Workers          int             `json:"workers"`
	Seeds            []graph.Vertex  `json:"seeds"`
	Theta            int64           `json:"theta"`
	SamplesGenerated int             `json:"samplesGenerated"`
	EstimatedSpread  float64         `json:"estimatedSpread"`
	CoverageFraction float64         `json:"coverageFraction"`
	Store            string          `json:"store"`
	StoreBytes       int64           `json:"storeBytes"`
	FlatStoreBytes   int64           `json:"flatStoreBytes,omitempty"`
	TotalSeconds     float64         `json:"totalSeconds"`
	Verified         *verifiedSpread `json:"verified,omitempty"`
	// Query-diversity extras (present only in -audience/-budget/-blocked
	// mode).
	Gains       []int64 `json:"gains,omitempty"`
	Covered     int64   `json:"covered,omitempty"`
	Eligible    int64   `json:"eligible,omitempty"`
	SpentBudget float64 `json:"spentBudget,omitempty"`
}

// runQueryMode builds a resident sketch and runs the budgeted / targeted /
// blocked selection shapes over it, then reports like a normal run (the
// estimated spread is the RIS estimate over the sketch's samples). The
// sketch answers one query, which never repays a frequency relabeling, so
// it is coded under the vertex ids (imm.StoreFlat).
func runQueryMode(g *graph.Graph, st graph.Stats, model diffuse.Model, reg *metrics.Registry,
	k int, eps float64, seed uint64, workers int,
	audience string, budget float64, blocked string, verify int, jsonOut bool) error {
	aud, err := cli.ParseVertexList(audience, g.NumVertices())
	if err != nil {
		return fmt.Errorf("-audience: %w", err)
	}
	blk, err := cli.ParseVertexList(blocked, g.NumVertices())
	if err != nil {
		return fmt.Errorf("-blocked: %w", err)
	}
	key := server.SketchKey{GraphDigest: g.Digest(), Model: model, Epsilon: eps, KMax: k, Seed: seed}
	sk, err := server.BuildSketch(g, key, workers, imm.StoreFlat, reg)
	if err != nil {
		return err
	}
	q := imm.Query{K: k, Budget: budget, Audience: aud, Blocked: blk}
	qr, err := sk.QueryEx(q, workers)
	if err != nil {
		return err
	}
	theta := sk.Theta
	coverage := 0.0
	if c := sk.Col.Count(); c > 0 {
		coverage = float64(qr.Covered) / float64(c)
	}
	estimated := coverage * float64(g.NumVertices())

	var verified *verifiedSpread
	if verify > 0 && len(qr.Seeds) > 0 {
		mean, se := diffuse.EstimateSpread(g, model, qr.Seeds, verify, workers, seed^0xe7a1)
		verified = &verifiedSpread{Mean: mean, StdErr: se, Trials: verify}
	}

	if jsonOut {
		out := jsonResult{
			Graph: jsonGraph{
				Vertices: st.Vertices, Edges: st.Edges,
				AvgDegree: st.AvgDegree, MaxDegree: st.MaxDegree,
			},
			Model: model.String(), K: k, Epsilon: eps, Workers: workers,
			Seeds: qr.Seeds, Theta: theta, SamplesGenerated: sk.Col.Count(),
			EstimatedSpread: estimated, CoverageFraction: coverage,
			Store: sk.Store().String(), StoreBytes: sk.Col.Bytes(), FlatStoreBytes: sk.Col.FlatBytes(),
			Gains: qr.Gains, Covered: qr.Covered, Eligible: qr.Eligible,
			SpentBudget: qr.SpentBudget, Verified: verified,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Printf("theta: %d; eligible samples: %d\n", theta, qr.Eligible)
	if len(aud) > 0 {
		fmt.Printf("audience: %d vertices (targeted mode)\n", len(aud))
	}
	if len(blk) > 0 {
		fmt.Printf("blocked: %v (competitive mode)\n", blk)
	}
	if budget > 0 {
		fmt.Printf("budget: %g, spent: %g (unit costs)\n", budget, qr.SpentBudget)
	}
	fmt.Printf("estimated spread: %.1f vertices (coverage %.4f)\n", estimated, coverage)
	fmt.Printf("seeds (selection order): %v\n", qr.Seeds)
	fmt.Printf("gains (covered samples): %v\n", qr.Gains)
	if verified != nil {
		fmt.Printf("verified spread: %.1f ± %.1f (over %d cascades)\n",
			verified.Mean, 2*verified.StdErr, verified.Trials)
	}
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "imm: "+format+"\n", args...)
	os.Exit(1)
}
