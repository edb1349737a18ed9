package influmax

import (
	"io"

	"influmax/internal/baseline"
	"influmax/internal/diffuse"
	"influmax/internal/dist"
	"influmax/internal/gen"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
	"influmax/internal/mpi"
	"influmax/internal/server"
	"influmax/internal/trace"
)

// Core graph types, re-exported from the substrate.
type (
	// Graph is a directed graph in CSR form with per-edge activation
	// probabilities.
	Graph = graph.Graph
	// Vertex identifies a vertex in [0, NumVertices).
	Vertex = graph.Vertex
	// Edge is a weighted directed edge used during construction.
	Edge = graph.Edge
)

// NewBuilder returns a builder for a graph with n vertices: Add weighted
// edges, then Build.
func NewBuilder(n int) *graph.Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph from an edge list.
func FromEdges(n int, es []Edge) *Graph { return graph.FromEdges(n, es) }

// ParseEdgeList reads a SNAP-style edge list; see graph.ParseEdgeList.
func ParseEdgeList(r io.Reader) (*Graph, []int64, error) { return graph.ParseEdgeList(r) }

// Generate synthesizes a scaled analog of one of the paper's eight SNAP
// datasets (see DatasetNames). Weights are zero; assign a scheme such as
// (*Graph).AssignUniform afterwards. It panics on an unknown name or a
// scale outside (0, 1].
func Generate(dataset string, scale float64, seed uint64) *Graph {
	d, err := gen.ByName(dataset)
	if err != nil {
		panic(err)
	}
	return d.Generate(scale, seed)
}

// DatasetNames lists the SNAP analogs available to Generate.
func DatasetNames() []string {
	var names []string
	for _, d := range gen.Datasets() {
		names = append(names, d.Name)
	}
	return names
}

// Model selects the diffusion process.
type Model = diffuse.Model

// Diffusion models.
const (
	// IC is the Independent Cascade model.
	IC = diffuse.IC
	// LT is the Linear Threshold model.
	LT = diffuse.LT
)

// Options configures an IMM run; see the imm package for field docs.
type Options = imm.Options

// Result reports an IMM run.
type Result = imm.Result

// RNG stream-splitting disciplines.
const (
	// PerSample gives every Monte Carlo sample its own derived stream:
	// results are reproducible for any worker/rank count. It samples with
	// the fused CSR frontier kernel under work-stealing — the default.
	PerSample = imm.PerSample
	// LeapFrog splits one global LCG sequence across workers, as the
	// paper does with TRNG, and samples with the paper's engine: the
	// per-sample reverse-BFS/walk kernel on the static contiguous split.
	LeapFrog = imm.LeapFrog
)

// StoreKind is the labeling of a kept byte-coded sketch (BuildSketch,
// LoadSnapshot, ServeConfig.Store) — the bytes/purge-speed trade-off of
// DESIGN.md §13. The selected seeds are identical under either labeling.
// Maximize does not read it: it selects over the samples as drawn, and
// its Result.Store prints "flat" (the uint32 arena) or, for a dense draw,
// "matrix" (DESIGN.md §13.6).
type StoreKind = imm.StoreKind

// Sketch labelings.
const (
	// StoreFlat codes the samples under the vertex ids (delta+varint
	// payloads) — the default.
	StoreFlat = imm.StoreFlat
	// StoreCoded codes them under the frequency-ordered relabeling: more
	// bytes and a slower transcode, a faster decrementing purge.
	StoreCoded = imm.StoreCoded
)

// Phase identifies a section of Algorithm 1 in a Result's timing
// breakdown (the stacked bars of the paper's figures).
type Phase = trace.Phase

// Algorithm 1 phases.
const (
	// PhaseEstimation is Algorithm 2 (EstimateTheta) including its
	// internal sampling.
	PhaseEstimation = trace.Estimation
	// PhaseSampling is the direct Sample invocation (Algorithm 3).
	PhaseSampling = trace.Sampling
	// PhaseIndexBuild is the construction of the inverted vertex->samples
	// incidence index the final seed selection purges through.
	PhaseIndexBuild = trace.IndexBuild
	// PhaseSelect is the final SelectSeeds invocation (Algorithm 4).
	PhaseSelect = trace.SelectSeeds
	// PhaseOther is setup and accounting.
	PhaseOther = trace.Other
)

// Maximize runs parallel IMM over g: the optimized sequential
// implementation when opt.Workers == 1, the multithreaded one otherwise.
func Maximize(g *Graph, opt Options) (*Result, error) { return imm.Run(g, opt) }

// MaximizeBaseline runs the sequential Tang-style baseline (bidirectional
// hypergraph store), the "IMM" rows of Tables 2 and 3.
func MaximizeBaseline(g *Graph, opt Options) (*Result, error) { return imm.RunBaseline(g, opt) }

// Comm is one rank's endpoint of the message-passing substrate.
type Comm = mpi.Comm

// LocalCluster creates p in-process ranks; hand each Comm to a goroutine
// and call MaximizeDistributed on all of them.
func LocalCluster(p int) []Comm { return mpi.NewLocalCluster(p) }

// DistOptions configures a distributed IMM run.
type DistOptions = dist.Options

// DistResult reports a distributed IMM run.
type DistResult = dist.Result

// MaximizeDistributed runs IMMdist over the communicator; all ranks must
// call it with the same graph and options, and all receive the same seeds.
func MaximizeDistributed(c Comm, g *Graph, opt DistOptions) (*DistResult, error) {
	return dist.Run(c, g, opt)
}

// Spread estimates the expected influence E[|I(S)|] of a seed set by
// parallel Monte Carlo simulation, returning the mean and standard error.
func Spread(g *Graph, model Model, seeds []Vertex, trials, workers int, seed uint64) (float64, float64) {
	return diffuse.EstimateSpread(g, model, seeds, trials, workers, seed)
}

// SpreadCurve estimates the expected influence of every prefix of the
// seed list — the "return on investment" curve of Figure 1 — sharing one
// live-edge Monte Carlo trial set across all prefixes, so the whole curve
// costs about as much as a single evaluation.
func SpreadCurve(g *Graph, model Model, seeds []Vertex, trials, workers int, seed uint64) []float64 {
	return diffuse.SpreadCurve(g, model, seeds, trials, workers, seed)
}

// CELF is the lazy-greedy baseline of Leskovec et al.
func CELF(g *Graph, model Model, k, trials, workers int, seed uint64) ([]Vertex, []float64, error) {
	return baseline.CELF(g, model, k, trials, workers, seed)
}

// TopDegree and DegreeDiscount are the degree heuristics of Chen et al.
func TopDegree(g *Graph, k int) []Vertex { return baseline.TopDegree(g, k) }
func DegreeDiscount(g *Graph, k int, p float64) []Vertex {
	return baseline.DegreeDiscount(g, k, p)
}

// Observability surface: engine-level metrics and structured run reports.
// See internal/metrics for the schema; cmd/imm and cmd/immdist expose it
// via -metrics-json.
type (
	// MetricsRegistry names lock-free counters, gauges and histograms;
	// pass one in Options.Metrics to instrument the sampling engine.
	MetricsRegistry = metrics.Registry
	// RunReport is the machine-readable record of one maximization run
	// (the schema version is its "schema" JSON field).
	RunReport = metrics.RunReport
)

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Report converts a shared-memory Result into its RunReport; pass the
// same Options the run used.
func Report(res *Result, opt Options) *RunReport { return res.Report(opt) }

// Serving surface: the resident sketch-serving subsystem behind
// cmd/immserve. See internal/server for the architecture.
type (
	// ServeConfig configures a seed-serving server (graph, sketch sizing,
	// admission-control limits, optional preloaded snapshot).
	ServeConfig = server.Config
	// SeedServer is the long-running service: mount Handler, or Start a
	// listener, and Shutdown to drain.
	SeedServer = server.Server
	// Sketch is an immutable query-ready RRR sample store (byte-coded
	// samples + inverted incidence index) serving any k <= its KMax.
	Sketch = server.Sketch
	// SketchKey identifies a sketch configuration: graph digest plus the
	// sampling parameters theta was sized for.
	SketchKey = server.SketchKey
	// WeightPolicy tells a dynamic server (ServeConfig.Dynamic) how edge
	// weights are re-derived after a mutation batch.
	WeightPolicy = imm.WeightPolicy
)

// Weight policies.
const (
	WeightsExplicit = imm.WeightsExplicit
	WeightsWC       = imm.WeightsWC
)

// Serve validates cfg and returns a ready SeedServer (no listener yet);
// call Start or mount Handler.
func Serve(cfg ServeConfig) (*SeedServer, error) { return server.New(cfg) }

// BuildSketch samples a query-ready sketch for key over g — the full IMM
// estimation + sampling pipeline at K = key.KMax, transcoded into the
// byte-coded store under the labeling store and indexed. Neither the sketch
// content nor the query seeds depend on workers or store; reg may be nil.
func BuildSketch(g *Graph, key SketchKey, workers int, store StoreKind, reg *MetricsRegistry) (*Sketch, error) {
	return server.BuildSketch(g, key, workers, store, reg)
}

// SaveSnapshot persists a sketch at path in the versioned, checksummed
// snapshot format (atomic rename).
func SaveSnapshot(path string, s *Sketch) error { return s.Save(path) }

// LoadSnapshot reads a sketch snapshot and validates it against g (the
// stored graph digest must match), transcoding it into the store kind the
// caller wants to serve if the snapshot was written with the other one.
func LoadSnapshot(path string, g *Graph, workers int, store StoreKind) (*Sketch, error) {
	return server.LoadSketch(path, g, workers, store, 0)
}

// Query-diversity surface (DESIGN.md §17): four selection shapes over one
// resident sketch — plain top-k, budgeted (cost-aware lazy greedy under a
// total budget), targeted (coverage restricted to an audience's samples),
// and competitive (a rival's seeds excluded and pre-purged) — plus the
// exposed CountAll spread estimator.
type (
	// SketchQuery is one query shape: K plus optional Costs/Budget,
	// Audience and Blocked (all empty = plain top-k). See imm.Query.
	SketchQuery = imm.Query
	// SketchQueryResult carries the seeds, per-seed gains, covered and
	// eligible sample counts, and spent budget.
	SketchQueryResult = imm.QueryResult
)

// QuerySketch runs q over a resident sketch with workers threads. A plain
// q reproduces the classic top-k selection byte-identically; see
// SketchQuery for the budgeted/targeted/blocked shapes.
func QuerySketch(s *Sketch, q SketchQuery, workers int) (*SketchQueryResult, error) {
	return s.QueryEx(q, workers)
}

// EstimateSpread exposes the RIS coverage estimator over a resident
// sketch: covered counts the samples the seed set covers, eligible the
// samples passing the audience filter (all of them when audience is
// empty), and estimate is n * covered / theta — the standard RIS
// influence estimate, restricted to expected audience members influenced
// when an audience is given.
func EstimateSpread(s *Sketch, seeds, audience []Vertex) (estimate float64, covered, eligible int64, err error) {
	covered, eligible, err = s.Spread(seeds, audience)
	if err != nil {
		return 0, 0, 0, err
	}
	if c := s.Col.Count(); c > 0 {
		estimate = float64(covered) / float64(c) * float64(s.Col.NumVertices())
	}
	return estimate, covered, eligible, nil
}
