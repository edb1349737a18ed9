// Package cli is the glue the command-line tools under cmd/ share: graph
// input, vertex-list parsing, the SIGINT partial-report flush and the
// profiling switches. It registers no flags; every tool keeps its own
// flag names, defaults and usage text and passes the parsed values in.
package cli

import (
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"influmax/internal/gen"
	"influmax/internal/graph"
	"influmax/internal/metrics"
	"influmax/internal/trace"
)

// GraphInput names where a tool's graph comes from: the file at Path
// (an edge list, or the binary graph format when Binary is set), else
// the generated analog of Dataset at Scale, weighted by the Weights
// scheme (see Weighting).
type GraphInput struct {
	Path    string
	Binary  bool
	Dataset string
	Scale   float64
	Seed    uint64
	Weights string
}

// LoadGraph resolves in. A file keeps its stored weights. A bad dataset
// name, scale or weight scheme is an error, checked before any work.
func LoadGraph(in GraphInput) (*graph.Graph, error) {
	switch {
	case in.Path != "":
		f, err := os.Open(in.Path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if in.Binary {
			return graph.ReadBinary(f)
		}
		g, _, err := graph.ParseEdgeList(f)
		return g, err
	case in.Dataset != "":
		weigh, err := Weighting(in.Weights, in.Seed)
		if err != nil {
			return nil, err
		}
		g, err := Generate(in.Dataset, in.Scale, in.Seed)
		if err != nil {
			return nil, err
		}
		weigh(g)
		return g, nil
	}
	return nil, errors.New("pass -graph <file> or -dataset <name>")
}

// Generate synthesizes the analog of the named SNAP dataset at scale,
// refusing an unknown name or a scale outside (0, 1] (NaN included).
func Generate(dataset string, scale float64, seed uint64) (*graph.Graph, error) {
	d, err := gen.ByName(dataset)
	if err != nil {
		return nil, fmt.Errorf("unknown -dataset %q (graphgen -list names them)", dataset)
	}
	if !(scale > 0 && scale <= 1) {
		return nil, fmt.Errorf("-scale %v out of (0, 1]", scale)
	}
	return d.Generate(scale, seed), nil
}

// Family synthesizes a parametric random graph of the named family (er,
// ba, ws or rmat; graphgen's flags -n, -m, -mper and -beta), refusing the
// sizes and rewiring probabilities the generators cannot honour — where
// gen would panic, or where R-MAT, drawing m distinct edges, could never
// finish.
func Family(name string, n, m, mPer int, beta float64, seed uint64) (*graph.Graph, error) {
	switch name {
	case "er":
		if n < 2 || m < 0 {
			return nil, fmt.Errorf("-family er needs -n >= 2 and -m >= 0 (got -n %d -m %d)", n, m)
		}
		return gen.ErdosRenyi(n, m, seed), nil
	case "ba":
		if mPer < 1 || n <= mPer {
			return nil, fmt.Errorf("-family ba needs -n > -mper >= 1 (got -n %d -mper %d)", n, mPer)
		}
		return gen.BarabasiAlbert(n, mPer, seed), nil
	case "ws":
		if mPer < 1 || n-2 < mPer {
			return nil, fmt.Errorf("-family ws needs -n >= -mper + 2 and -mper >= 1 (got -n %d -mper %d)", n, mPer)
		}
		if !(beta >= 0 && beta <= 1) {
			return nil, fmt.Errorf("-beta %v out of [0, 1]", beta)
		}
		return gen.WattsStrogatz(n, mPer, beta, seed), nil
	case "rmat":
		if n < 2 || m < 0 || int64(m) > int64(n)*int64(n-1) {
			return nil, fmt.Errorf("-family rmat needs -n >= 2 and 0 <= -m <= n(n-1) (got -n %d -m %d)", n, m)
		}
		return gen.RMAT(n, m, 0.57, 0.19, 0.19, seed), nil
	}
	return nil, fmt.Errorf("unknown family %q (want er, ba, ws, rmat)", name)
}

// Weighting parses a -weights scheme into the function that applies it:
// uniform (U[0,1) draws from seed), wc (weighted cascade), const:<p> with
// p in [0, 1] (NaN refused), or none (weights stay as they are).
func Weighting(scheme string, seed uint64) (func(*graph.Graph), error) {
	switch scheme {
	case "uniform":
		return func(g *graph.Graph) { g.AssignUniform(seed ^ 0x5eed) }, nil
	case "wc":
		return (*graph.Graph).AssignWeightedCascade, nil
	case "none":
		return func(*graph.Graph) {}, nil
	}
	rest, ok := strings.CutPrefix(scheme, "const:")
	if !ok {
		return nil, fmt.Errorf("unknown -weights %q (want uniform, wc, const:<p> or none)", scheme)
	}
	p, err := strconv.ParseFloat(rest, 64)
	if err != nil || !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("bad -weights %q (want const:<p> with p in [0, 1])", scheme)
	}
	return func(g *graph.Graph) { g.AssignConstant(float32(p)) }, nil
}

// ParseVertexList parses a comma-separated vertex-id list ("" = none)
// over a graph of n vertices; empty entries are skipped.
func ParseVertexList(s string, n int) ([]graph.Vertex, error) {
	var out []graph.Vertex
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 32)
		if err != nil || v >= uint64(n) {
			return nil, fmt.Errorf("bad vertex id %q (want 0 <= id < %d)", part, n)
		}
		out = append(out, graph.Vertex(v))
	}
	return out, nil
}

// FlushOnSignal arranges for SIGINT/SIGTERM to write a partial RunReport
// of algorithm to path and exit 130, so a killed -metrics-json run still
// leaves an artifact. fill stamps the configuration and whatever counters
// have accumulated on the report, which arrives with the schema set and
// Interrupted true. The returned disarm stops listening once the real
// report has been written.
func FlushOnSignal(prog, path, algorithm string, fill func(*metrics.RunReport)) (disarm func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		rep := metrics.NewRunReport(algorithm, trace.Times{})
		rep.Interrupted = true
		fill(rep)
		if err := rep.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "%s: flushing partial report: %v\n", prog, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%s: interrupted; partial report written to %s\n", prog, path)
		os.Exit(130)
	}()
	return func() { signal.Stop(sig) }
}

// ServePprof serves net/http/pprof on addr until process exit and
// announces the bound address on stderr; an empty addr does nothing.
func ServePprof(prog, addr string) error {
	if addr == "" {
		return nil
	}
	srv, err := metrics.StartPprofServer(addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: pprof on http://%s/debug/pprof/\n", prog, srv.Addr)
	return nil
}

// StartProfiles begins a CPU profile written to cpuPath. The returned
// stop ends it, then writes a heap profile to memPath. An empty path
// skips that profile.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	stopCPU := func() error { return nil }
	if cpuPath != "" {
		if stopCPU, err = metrics.StartCPUProfile(cpuPath); err != nil {
			return nil, err
		}
	}
	return func() error {
		if err := stopCPU(); err != nil {
			return err
		}
		if memPath == "" {
			return nil
		}
		return metrics.WriteHeapProfile(memPath)
	}, nil
}
