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
	"os/signal"
	"syscall"

	"influmax"
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
		storeStr    = flag.String("store", "flat", "RRR store for the final selection: flat (uint32 arena) or coded (byte-coded, ~3x smaller; same seeds)")
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

	if *pprofAddr != "" {
		srv, err := influmax.StartPprofServer(*pprofAddr)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "imm: pprof on http://%s/debug/pprof/\n", srv.Addr)
	}

	model, err := influmax.ParseModel(*modelStr)
	if err != nil {
		fatal("%v", err)
	}
	store, err := influmax.ParseStoreKind(*storeStr)
	if err != nil {
		fatal("%v", err)
	}

	// With -metrics-json, a SIGINT/SIGTERM mid-run still leaves a report:
	// the handler flushes a partial one (configuration + whatever engine
	// counters have accumulated, Interrupted=true) before exiting. Armed
	// before the slow phases (graph load, maximization) so a kill at any
	// point is caught.
	var reg *influmax.MetricsRegistry
	var disarm func()
	if *metricsJSON != "" {
		reg = influmax.NewMetricsRegistry()
		alg := "IMMmt"
		if *baseline {
			alg = "IMM"
		}
		disarm = flushOnSignal("imm", *metricsJSON, func() *influmax.RunReport {
			rep := influmax.NewPartialReport(alg)
			rep.Model = model.String()
			rep.K, rep.Epsilon, rep.Seed, rep.Workers = *k, *eps, *seed, *workers
			rep.Metrics = reg.Snapshot()
			return rep
		})
	}

	g, err := loadGraph(*graphPath, *binary, *dataset, *scale, *seed, *weights)
	if err != nil {
		fatal("%v", err)
	}
	if model == influmax.LT {
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
		if err := runQueryMode(g, st, model, store, reg,
			*k, *eps, *seed, *workers, *audience, *budget, *blocked, *verify, *jsonOut); err != nil {
			fatal("%v", err)
		}
		return
	}

	opt := influmax.Options{K: *k, Epsilon: *eps, Model: model, Workers: *workers, Seed: *seed, Store: store}
	if *leapfrog {
		opt.RNG = influmax.LeapFrog
	}
	if *metricsJSON != "" {
		opt.Metrics = reg
	}
	stopCPU := func() error { return nil }
	if *cpuProfile != "" {
		stopCPU, err = influmax.StartCPUProfile(*cpuProfile)
		if err != nil {
			fatal("%v", err)
		}
	}
	var res *influmax.Result
	if *baseline {
		res, err = influmax.MaximizeBaseline(g, opt)
	} else {
		res, err = influmax.Maximize(g, opt)
	}
	if stopErr := stopCPU(); stopErr != nil {
		fatal("%v", stopErr)
	}
	if err != nil {
		fatal("%v", err)
	}
	if *memProfile != "" {
		if err := influmax.WriteHeapProfile(*memProfile); err != nil {
			fatal("%v", err)
		}
	}

	var verified *verifiedSpread
	if *verify > 0 {
		mean, se := influmax.Spread(g, model, res.Seeds, *verify, *workers, *seed^0xe7a1)
		verified = &verifiedSpread{Mean: mean, StdErr: se, Trials: *verify}
	}

	if *metricsJSON != "" {
		disarm() // the run finished; the complete report supersedes the partial one
		rep := influmax.Report(res, opt)
		rep.Graph = &influmax.GraphInfo{
			Vertices: st.Vertices, Edges: st.Edges,
			AvgDegree: st.AvgDegree, MaxDegree: st.MaxDegree,
		}
		if verified != nil {
			rep.Verified = &influmax.VerifiedSpread{
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
	if res.Store == influmax.StoreCoded && res.StoreBytes > 0 {
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
	Graph            jsonGraph         `json:"graph"`
	Model            string            `json:"model"`
	K                int               `json:"k"`
	Epsilon          float64           `json:"epsilon"`
	Workers          int               `json:"workers"`
	Seeds            []influmax.Vertex `json:"seeds"`
	Theta            int64             `json:"theta"`
	SamplesGenerated int               `json:"samplesGenerated"`
	EstimatedSpread  float64           `json:"estimatedSpread"`
	CoverageFraction float64           `json:"coverageFraction"`
	Store            string            `json:"store"`
	StoreBytes       int64             `json:"storeBytes"`
	FlatStoreBytes   int64             `json:"flatStoreBytes,omitempty"`
	TotalSeconds     float64           `json:"totalSeconds"`
	Verified         *verifiedSpread   `json:"verified,omitempty"`
	// Query-diversity extras (present only in -audience/-budget/-blocked
	// mode).
	Gains       []int64 `json:"gains,omitempty"`
	Covered     int64   `json:"covered,omitempty"`
	Eligible    int64   `json:"eligible,omitempty"`
	SpentBudget float64 `json:"spentBudget,omitempty"`
}

// parseVertexList parses a comma-separated vertex-id list ("" = empty).
func parseVertexList(s string, n int) ([]influmax.Vertex, error) {
	if s == "" {
		return nil, nil
	}
	var out []influmax.Vertex
	for _, part := range splitComma(s) {
		var v uint64
		if _, err := fmt.Sscanf(part, "%d", &v); err != nil || int64(v) >= int64(n) {
			return nil, fmt.Errorf("bad vertex id %q (want 0 <= id < %d)", part, n)
		}
		out = append(out, influmax.Vertex(v))
	}
	return out, nil
}

func splitComma(s string) []string {
	var parts []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				parts = append(parts, s[start:i])
			}
			start = i + 1
		}
	}
	return parts
}

// runQueryMode builds a resident sketch and runs the budgeted / targeted /
// blocked selection shapes over it, then reports like a normal run (the
// estimated spread is the RIS estimate over the sketch's samples).
func runQueryMode(g *influmax.Graph, st influmax.GraphStats, model influmax.Model,
	store influmax.StoreKind, reg *influmax.MetricsRegistry,
	k int, eps float64, seed uint64, workers int,
	audience string, budget float64, blocked string, verify int, jsonOut bool) error {
	aud, err := parseVertexList(audience, g.NumVertices())
	if err != nil {
		return fmt.Errorf("-audience: %w", err)
	}
	blk, err := parseVertexList(blocked, g.NumVertices())
	if err != nil {
		return fmt.Errorf("-blocked: %w", err)
	}
	key := influmax.SketchKey{GraphDigest: g.Digest(), Model: model, Epsilon: eps, KMax: k, Seed: seed}
	sk, err := influmax.BuildSketch(g, key, workers, store, reg)
	if err != nil {
		return err
	}
	q := influmax.SketchQuery{K: k, Budget: budget, Audience: aud, Blocked: blk}
	qr, err := influmax.QuerySketch(sk, q, workers)
	if err != nil {
		return err
	}
	theta := sk.Theta
	coverage := 0.0
	if theta > 0 {
		coverage = float64(qr.Covered) / float64(theta)
	}
	estimated := coverage * float64(g.NumVertices())

	var verified *verifiedSpread
	if verify > 0 && len(qr.Seeds) > 0 {
		mean, se := influmax.Spread(g, model, qr.Seeds, verify, workers, seed^0xe7a1)
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
			Store: sk.Store().String(), StoreBytes: sk.Col.Bytes(),
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

// loadGraph resolves the input source and assigns weights for generated
// graphs (file inputs keep their stored weights unless they are all zero).
func loadGraph(path string, binary bool, dataset string, scale float64, seed uint64, weights string) (*influmax.Graph, error) {
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if binary {
			return influmax.ReadBinary(f)
		}
		g, _, err := influmax.ParseEdgeList(f)
		return g, err
	case dataset != "":
		g := influmax.Generate(dataset, scale, seed)
		switch {
		case weights == "uniform":
			g.AssignUniform(seed ^ 0x5eed)
		case weights == "wc":
			g.AssignWeightedCascade()
		case weights == "none":
		default:
			var p float64
			if _, err := fmt.Sscanf(weights, "const:%g", &p); err != nil {
				return nil, fmt.Errorf("bad -weights %q", weights)
			}
			g.AssignConstant(float32(p))
		}
		return g, nil
	}
	return nil, fmt.Errorf("pass -graph <file> or -dataset <name>")
}

// flushOnSignal arranges for SIGINT/SIGTERM to write partial() to path
// and exit 130; the returned disarm stops listening once the real report
// has been written.
func flushOnSignal(prog, path string, partial func() *influmax.RunReport) func() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if err := partial().WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "%s: flushing partial report: %v\n", prog, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%s: interrupted; partial report written to %s\n", prog, path)
		os.Exit(130)
	}()
	return func() { signal.Stop(sig) }
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "imm: "+format+"\n", args...)
	os.Exit(1)
}
