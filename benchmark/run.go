package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"influmax/benchmark/internal/span"
	"influmax/internal/diffuse"
	"influmax/internal/gen"
	"influmax/internal/graph"
	"influmax/internal/imm"
)

// setups is how many times a run sets the workload up from nothing; the
// reported set-up time is their median.
const setups = 3

// A runCtx carries one workload run: its inputs, and what it measured.
type runCtx struct {
	spec    spec
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	workers int // engine Workers
	clients int // closed-loop clients
	outDir  string

	rec *span.Recorder // nil unless trace

	e2e   map[string]stat
	layer map[string]stat
	// answer is what the golden file pins for the default seed.
	answer goldenEntry

	attempted int
	failed    int
	failures  []string
}

// fail records one failed operation or correctness check.
func (c *runCtx) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check and records it when it failed.
func (c *runCtx) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
}

func (c *runCtx) scale() float64 {
	if c.smoke {
		return c.spec.scale * smokeScale
	}
	return c.spec.scale
}

// eps is the workload's accuracy; the smoke size loosens it, because theta
// grows with 1/eps^2 however small the graph is.
func (c *runCtx) eps() float64 {
	if c.smoke {
		return max(c.spec.eps, smokeEps)
	}
	return c.spec.eps
}

// options is the engine profile that serves today: per-sample RNG, dynamic
// schedule, fused kernel.
func (c *runCtx) options() imm.Options {
	return imm.Options{
		K: c.spec.k, Epsilon: c.eps(), Model: c.spec.model,
		Workers: c.workers, Seed: c.seed, Store: c.spec.store,
	}
}

// makeGraph generates the workload's graph from the run's seed and
// returns the time gen.Generate took.
func (c *runCtx) makeGraph() (*graph.Graph, time.Duration, error) {
	d, err := gen.ByName(c.spec.dataset)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	g := d.Generate(c.scale(), c.seed)
	genDur := time.Since(start)
	switch c.spec.weights {
	case "uniform":
		g.AssignUniform(c.seed + 1)
	case "wc":
		g.AssignWeightedCascade()
	default:
		return nil, 0, fmt.Errorf("unknown weight scheme %q", c.spec.weights)
	}
	if c.spec.model == diffuse.LT {
		g.NormalizeLT()
	}
	return g, genDur, nil
}

// graphLayer reports the generated graph.
func (c *runCtx) graphLayer(g *graph.Graph, genDur time.Duration) {
	c.layer["gen.generate_s"] = exact(genDur.Seconds(), "s")
	c.layer["graph.vertices"] = exact(float64(g.NumVertices()), "count")
	c.layer["graph.edges"] = exact(float64(g.NumEdges()), "count")
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuTime is the user + system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuUtil is the share of the available cores the process used between a
// cpuTime reading and now.
func cpuUtil(cpu0 time.Duration, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(cpuTime()-cpu0) / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
}

// A childResult is the last line a workload run prints.
type childResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]childMetric `json:"metrics"`
}

type childMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A runDetail is what a run writes beside its result line for the parent:
// the same values with their quartiles and sample counts.
type runDetail struct {
	Meta      runMeta         `json:"meta"`
	Workload  string          `json:"workload"`
	Seed      uint64          `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Trace     bool            `json:"trace"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Failures  []string        `json:"failures,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
	Answer    goldenEntry     `json:"answer"`
}

// runWorkload runs one workload in this process and prints its result.
func runWorkload(c *runCtx, stdout io.Writer, detailPath string) (ok bool, err error) {
	c.e2e = make(map[string]stat)
	c.layer = make(map[string]stat)
	if c.trace {
		c.rec = span.NewRecorder()
	}
	if err := c.spec.run(c); err != nil {
		return false, err
	}
	if !c.trace {
		c.e2e["peak_rss_mb"] = exact(peakRSSMB(), "MB")
	}
	c.checkGolden()

	meta := newMeta(c.seed, c.seconds, c.clients, c.smoke)
	defs, got := endToEnd, c.e2e
	if c.trace {
		defs, got = perLayer, c.layer
		if err := c.writeTrace(meta); err != nil {
			return false, err
		}
	}
	res := childResult{
		Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed,
		Metrics: make(map[string]childMetric, len(defs)),
	}
	detail := runDetail{
		Meta:     meta,
		Workload: c.spec.name, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		Correct: res.Correct, Attempted: c.attempted, Failed: c.failed,
		Failures: c.failures, Metrics: make(map[string]stat, len(defs)), Answer: c.answer,
	}
	for _, d := range defs {
		s := got[d.Name]
		s.Unit = d.Unit
		detail.Metrics[d.Name] = s
		res.Metrics[d.Name] = childMetric{Value: s.Value, Unit: d.Unit}
		fmt.Fprintf(stdout, "%-13s %-36s %16.6g %-6s q1 %-12.6g q3 %-12.6g n %d\n",
			c.spec.name, d.Name, s.Value, d.Unit, s.Q1, s.Q3, s.N)
	}
	for name := range got {
		if _, ok := detail.Metrics[name]; !ok {
			return false, fmt.Errorf("workload %s measured %q, which BENCHMARK.json does not name", c.spec.name, name)
		}
	}
	if c.trace {
		printRollup(stdout, c.rec.Spans())
	}
	for _, f := range c.failures {
		fmt.Fprintf(stdout, "FAILED %s: %s\n", c.spec.name, f)
	}
	if detailPath != "" {
		if err := writeJSONFile(detailPath, detail); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res.Correct, nil
}

// printRollup prints, for every kind of span tree, where its time went:
// the mean self time of each span name under that root.
func printRollup(w io.Writer, spans []span.Span) {
	fmt.Fprintf(w, "\nspan trees by root: count, mean duration, mean self time per span name (us).\n"+
		"Children that run in parallel each add their own self time, so the shares of a fan-out can pass 100%%.\n")
	for _, r := range span.RollupByRoot(spans) {
		fmt.Fprintf(w, "  %-32s n %-6d %12.1f us\n", r.Root, r.Count, r.MeanNs/1e3)
		names := make([]string, 0, len(r.SelfNs))
		for name := range r.SelfNs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "      %-36s %12.1f us  %5.1f%%\n", name, r.SelfNs[name]/1e3, 100*r.SelfNs[name]/r.MeanNs)
		}
	}
	fmt.Fprintln(w)
}

// writeTrace writes the run's spans to out/trace-<workload>.json.
func (c *runCtx) writeTrace(meta runMeta) error {
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(c.outDir, "trace-"+c.spec.name+".json"))
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Meta  runMeta     `json:"meta"`
		Spans []span.Span `json:"spans"`
	}{meta, c.rec.Spans()})
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
