package influmax

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"influmax/internal/baseline"
	"influmax/internal/centrality"
	"influmax/internal/cluster"
	"influmax/internal/diffuse"
	"influmax/internal/dist"
	"influmax/internal/gen"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
	"influmax/internal/mpi"
	"influmax/internal/rrr"
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
	// Builder accumulates edges and produces a Graph.
	Builder = graph.Builder
	// GraphStats summarizes a graph's degree structure.
	GraphStats = graph.Stats
)

// Model selects the diffusion process.
type Model = diffuse.Model

// Diffusion models.
const (
	// IC is the Independent Cascade model.
	IC = diffuse.IC
	// LT is the Linear Threshold model.
	LT = diffuse.LT
)

// ParseModel parses "IC" or "LT" (case-insensitive).
func ParseModel(s string) (Model, error) { return diffuse.ParseModel(s) }

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

// StoreKind selects the in-memory representation of the finished RRR
// sample store — the memory/decode-time trade-off of DESIGN.md §13. The
// selected seeds are identical for every kind.
type StoreKind = imm.StoreKind

// RRR store kinds.
const (
	// StoreFlat is the compact uint32 arena (4 B/entry + 8 B/sample) —
	// the default.
	StoreFlat = imm.StoreFlat
	// StoreCoded is the byte-coded store: frequency-ordered relabeling +
	// delta+varint payloads, >= 3x smaller on clustered graphs.
	StoreCoded = imm.StoreCoded
)

// ParseStoreKind parses "flat" or "coded" (case-insensitive).
func ParseStoreKind(s string) (StoreKind, error) {
	switch strings.ToLower(s) {
	case "flat":
		return StoreFlat, nil
	case "coded":
		return StoreCoded, nil
	}
	return 0, fmt.Errorf("unknown store kind %q (want flat or coded)", s)
}

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

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph from an edge list.
func FromEdges(n int, es []Edge) *Graph { return graph.FromEdges(n, es) }

// ParseEdgeList reads a SNAP-style edge list; see graph.ParseEdgeList.
func ParseEdgeList(r io.Reader) (*Graph, []int64, error) { return graph.ParseEdgeList(r) }

// WriteEdgeList writes g as "u v w" lines.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// ReadBinary / WriteBinary use the package's compact binary graph format.
func ReadBinary(r io.Reader) (*Graph, error)  { return graph.ReadBinary(r) }
func WriteBinary(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// Maximize runs parallel IMM over g: the optimized sequential
// implementation when opt.Workers == 1, the multithreaded one otherwise.
func Maximize(g *Graph, opt Options) (*Result, error) { return imm.Run(g, opt) }

// MaximizeBaseline runs the sequential Tang-style baseline (bidirectional
// hypergraph store), the "IMM" rows of Tables 2 and 3.
func MaximizeBaseline(g *Graph, opt Options) (*Result, error) { return imm.RunBaseline(g, opt) }

// Comm is one rank's endpoint of the message-passing substrate.
type Comm = mpi.Comm

// DistOptions configures a distributed IMM run.
type DistOptions = dist.Options

// DistResult reports a distributed IMM run.
type DistResult = dist.Result

// LocalCluster creates p in-process ranks; hand each Comm to a goroutine
// and call MaximizeDistributed on all of them.
func LocalCluster(p int) []Comm { return mpi.NewLocalCluster(p) }

// DialTCP joins a TCP communicator; see mpi.TCPConfig.
func DialTCP(rank int, addrs []string) (Comm, error) {
	return mpi.DialTCP(mpi.TCPConfig{Rank: rank, Addrs: addrs})
}

// Fault-tolerance surface: hardened transport knobs, deterministic fault
// injection, and the failure type collectives surface when a peer dies.
type (
	// TCPConfig configures the full-mesh TCP transport (deadlines,
	// frame-size bound, dial/send retry budget).
	TCPConfig = mpi.TCPConfig
	// FaultPlan is a deterministic, seed-driven fault schedule for the
	// WithFaults transport decorator.
	FaultPlan = mpi.FaultPlan
	// RankCrash schedules one rank's injected crash inside a FaultPlan.
	RankCrash = mpi.RankCrash
	// RankFailedError identifies the rank a collective blames for a
	// failure (dead connection, injected crash, or receive timeout).
	RankFailedError = mpi.RankFailedError
	// CommStats counts transport retries and injected faults; it lands in
	// RunReports under "mpi/..." counter names.
	CommStats = mpi.CommStats
)

// DialTCPConfig joins a TCP communicator with explicit transport
// hardening knobs (per-message deadlines, max frame size, retry budget).
func DialTCPConfig(cfg TCPConfig) (Comm, error) { return mpi.DialTCP(cfg) }

// ParseFaultPlan parses the -fault-plan flag syntax, e.g.
// "seed=7,delay=0.2/5ms,drop=0.1/3,dup=0.05,reorder=0.1,kill=1@500".
// An empty string yields an inactive plan.
func ParseFaultPlan(s string) (FaultPlan, error) { return mpi.ParseFaultPlan(s) }

// WithFaults decorates a communicator with deterministic fault injection
// per plan; an inactive plan returns c unchanged.
func WithFaults(c Comm, plan FaultPlan) Comm { return mpi.WithFaults(c, plan) }

// CommStatsOf extracts transport/fault counters from a communicator, or
// zero stats if its transport does not track any.
func CommStatsOf(c Comm) CommStats { return mpi.StatsOf(c) }

// MaximizeDistributed runs IMMdist over the communicator; all ranks must
// call it with the same graph and options, and all receive the same seeds.
func MaximizeDistributed(c Comm, g *Graph, opt DistOptions) (*DistResult, error) {
	return dist.Run(c, g, opt)
}

// PartOptions configures a graph-partitioned distributed run (the paper's
// future-work extension: the input graph, not just the sample set, is
// partitioned across ranks).
type PartOptions = dist.PartOptions

// PartResult reports a graph-partitioned run.
type PartResult = dist.PartResult

// MaximizePartitioned runs graph-partitioned distributed IMM: every rank
// owns a contiguous vertex interval and only that interval's incoming
// edges; sampling is a bulk-synchronous frontier computation with
// common-random-numbers edge coins, so the result is identical for every
// rank count.
func MaximizePartitioned(c Comm, g *Graph, opt PartOptions) (*PartResult, error) {
	return dist.RunPartitioned(c, g, opt)
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

// Generate synthesizes a scaled analog of one of the paper's eight SNAP
// datasets (see Datasets for names). Weights are zero; assign a scheme
// such as (*Graph).AssignUniform afterwards. It panics on an unknown name
// or invalid scale — use gen.ByName via DatasetNames for validation.
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

// ErdosRenyi, BarabasiAlbert, WattsStrogatz and RMAT are the synthetic
// generator families; see the gen package for parameter docs.
func ErdosRenyi(n, m int, seed uint64) *Graph { return gen.ErdosRenyi(n, m, seed) }
func BarabasiAlbert(n, mPer int, seed uint64) *Graph {
	return gen.BarabasiAlbert(n, mPer, seed)
}
func WattsStrogatz(n, k int, beta float64, seed uint64) *Graph {
	return gen.WattsStrogatz(n, k, beta, seed)
}
func RMAT(n, m int, a, b, c float64, seed uint64) *Graph { return gen.RMAT(n, m, a, b, c, seed) }

// Greedy is the Monte Carlo hill-climbing baseline of Kempe et al.
func Greedy(g *Graph, model Model, k, trials, workers int, seed uint64) ([]Vertex, []float64, error) {
	return baseline.Greedy(g, model, k, trials, workers, seed)
}

// CELF is the lazy-greedy baseline of Leskovec et al.
func CELF(g *Graph, model Model, k, trials, workers int, seed uint64) ([]Vertex, []float64, error) {
	return baseline.CELF(g, model, k, trials, workers, seed)
}

// CELFPlusPlus is the CELF++ lazy-greedy of Goyal et al., returning the
// seeds, their marginal gains, and the number of spread-oracle
// evaluations.
func CELFPlusPlus(g *Graph, model Model, k, trials, workers int, seed uint64) ([]Vertex, []float64, int, error) {
	return baseline.CELFPlusPlus(g, model, k, trials, workers, seed)
}

// TIMResult reports a TIM+ run.
type TIMResult = imm.TIMResult

// MaximizeTIMPlus runs TIM+ (Tang et al. 2014), IMM's predecessor with the
// same guarantee but a coarser sample-count bound — kept for comparison
// benchmarks.
func MaximizeTIMPlus(g *Graph, opt Options) (*TIMResult, error) {
	return imm.RunTIMPlus(g, opt)
}

// KShell returns each vertex's k-shell (k-core) index on the undirected
// view of g; KShellSeeds draws k seeds from the innermost shells (Wu et
// al.'s heuristic).
func KShell(g *Graph) []int                { return centrality.KShell(g) }
func KShellSeeds(g *Graph, k int) []Vertex { return centrality.KShellSeeds(g, k) }

// TopDegree, SingleDiscount and DegreeDiscount are the degree heuristics
// of Chen et al.
func TopDegree(g *Graph, k int) []Vertex      { return baseline.TopDegree(g, k) }
func SingleDiscount(g *Graph, k int) []Vertex { return baseline.SingleDiscount(g, k) }
func DegreeDiscount(g *Graph, k int, p float64) []Vertex {
	return baseline.DegreeDiscount(g, k, p)
}

// Betweenness computes exact Brandes betweenness centrality.
func Betweenness(g *Graph, workers int) []float64 { return centrality.Betweenness(g, workers) }

// TopCentral returns the k highest-scoring vertices of a score vector.
func TopCentral(scores []float64, k int) []Vertex { return centrality.TopK(scores, k) }

// Observability surface: engine-level metrics and structured run reports.
// See internal/metrics for the schema; cmd/imm and cmd/immdist expose it
// via -metrics-json.
type (
	// MetricsRegistry names lock-free counters, gauges and histograms;
	// pass one in Options.Metrics to instrument the sampling engine.
	MetricsRegistry = metrics.Registry
	// RunReport is the machine-readable record of one maximization run
	// (schema version metrics.SchemaVersion, the "schema" JSON field).
	RunReport = metrics.RunReport
	// RankReport is one rank's sub-report inside a distributed RunReport.
	RankReport = metrics.RankReport
	// ReportLog accumulates RunReports across a multi-run trajectory and
	// serializes them as one JSON array.
	ReportLog = metrics.ReportLog
	// GraphInfo summarizes the input graph inside a RunReport.
	GraphInfo = metrics.GraphInfo
	// VerifiedSpread records a Monte Carlo check of the reported seeds.
	VerifiedSpread = metrics.VerifiedSpread
)

// ReportSchemaVersion is the RunReport JSON schema version ("schema").
const ReportSchemaVersion = metrics.SchemaVersion

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewReportLog returns an empty report log.
func NewReportLog() *ReportLog { return metrics.NewReportLog() }

// NewPartialReport returns a report shell with the schema stamped and
// Interrupted set — what a shell's signal handler flushes when a run is
// killed mid-flight, so -metrics-json still leaves an artifact. Callers
// fill in whatever configuration and accumulated counters they have.
func NewPartialReport(algorithm string) *RunReport {
	rep := metrics.NewRunReport(algorithm, trace.Times{})
	rep.Interrupted = true
	return rep
}

// AllPhases lists the Algorithm 1 phases in presentation order.
func AllPhases() []Phase { return trace.AllPhases() }

// GraphInfoFor summarizes a graph's stats for embedding in a RunReport.
func GraphInfoFor(g *Graph) *GraphInfo { return metrics.GraphInfoFor(g.ComputeStats()) }

// Report converts a shared-memory Result into its RunReport; pass the
// same Options the run used.
func Report(res *Result, opt Options) *RunReport { return res.Report(opt) }

// ReportDistributed assembles the RunReport of a distributed run. It is a
// collective over c: every rank calls it with its own result; rank 0
// receives the merged report with one RankReport per rank, other ranks
// receive (nil, nil).
func ReportDistributed(c Comm, opt DistOptions, res *DistResult) (*RunReport, error) {
	return dist.Report(c, opt, res)
}

// ReportPartitioned converts a graph-partitioned run's result into its
// RunReport (no gather; rank 0's report is the one to persist).
func ReportPartitioned(opt PartOptions, res *PartResult) *RunReport {
	return dist.ReportPartitioned(opt, res)
}

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
	// SnapshotMeta is the identifying header of a persisted sketch.
	SnapshotMeta = rrr.SnapshotMeta
)

// Serve validates cfg and returns a ready SeedServer (no listener yet);
// call Start or mount Handler.
func Serve(cfg ServeConfig) (*SeedServer, error) { return server.New(cfg) }

// BuildSketch samples a query-ready sketch for key over g — the full IMM
// estimation + sampling pipeline at K = key.KMax, transcoded into the
// byte-coded store selected by store and indexed. Neither the sketch
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
// The warm-start path of cmd/immserve.
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

// Dynamic-graph surface: edge mutations over an immutable CSR and
// incremental RRR sketch maintenance (DESIGN.md §15). A dynamic server
// (ServeConfig.Dynamic) exposes these over POST /v1/graph/delta.
type (
	// DeltaOp is one edge mutation: insert Src->Dst with weight W, or
	// delete Src->Dst.
	DeltaOp = graph.DeltaOp
	// DeltaOpKind discriminates insert from delete.
	DeltaOpKind = graph.DeltaOpKind
	// Delta is one ordered, atomically applied batch of edge mutations.
	Delta = graph.Delta
	// DeltaError is the typed rejection of an invalid batch (surfaced as
	// HTTP 400 by the delta endpoint; the sketch is left untouched).
	DeltaError = graph.DeltaError
	// GraphOverlay stages one Delta over an immutable base graph;
	// Compact materializes the mutated CSR.
	GraphOverlay = graph.Overlay
	// DynamicSketch is a resident RRR sketch that tracks a mutating
	// graph, repairing exactly the affected samples per batch.
	DynamicSketch = imm.DynamicSketch
	// DeltaStats accumulates maintenance telemetry across batches.
	DeltaStats = imm.DeltaStats
	// DeltaBatchResult reports one applied batch (epoch, repairs).
	DeltaBatchResult = imm.BatchResult
	// WeightPolicy tells maintenance how edge weights are re-derived
	// after a mutation batch.
	WeightPolicy = imm.WeightPolicy
)

// Delta op kinds and weight policies.
const (
	DeltaInsert     = graph.DeltaInsert
	DeltaDelete     = graph.DeltaDelete
	WeightsExplicit = imm.WeightsExplicit
	WeightsWC       = imm.WeightsWC
)

// NewGraphOverlay returns an empty overlay over base; Apply one Delta,
// then Compact into the mutated graph (base is never modified).
func NewGraphOverlay(base *Graph) *GraphOverlay { return graph.NewOverlay(base) }

// NewDynamicSketch builds the initial dynamic sketch over g with a full
// IMM run (opt.RNG must be the default PerSample mode) and returns it with
// the build's Result.
func NewDynamicSketch(g *Graph, opt Options, policy WeightPolicy) (*DynamicSketch, *Result, error) {
	return imm.NewDynamicSketch(g, opt, policy)
}

// ParseWeightPolicy parses "explicit" or "wc" (case-insensitive).
func ParseWeightPolicy(s string) (WeightPolicy, error) { return imm.ParseWeightPolicy(s) }

// StartPprofServer serves net/http/pprof endpoints on addr (e.g.
// "localhost:6060") until process exit; it returns the bound server whose
// Addr field carries the resolved address.
func StartPprofServer(addr string) (*http.Server, error) { return metrics.StartPprofServer(addr) }

// StartCPUProfile begins a CPU profile written to path; call the returned
// stop function before exit.
func StartCPUProfile(path string) (func() error, error) { return metrics.StartCPUProfile(path) }

// WriteHeapProfile writes a heap profile to path after a GC.
func WriteHeapProfile(path string) error { return metrics.WriteHeapProfile(path) }

// Cluster surface: a shard fleet behind a router (DESIGN.md §16). Each
// immserve replica owns one per-rank slice of the theta samples
// (ServeConfig.ClusterShard) and exposes the four-op shard API; a router
// (cmd/immrouter) fans seed selection out across the fleet, running the
// sample-partitioned distributed greedy protocol over HTTP, and degrades
// to the surviving shards when a replica dies.
type (
	// ClusterShard is one replica's slice of the fleet's samples plus the
	// session state the shard API serves.
	ClusterShard = cluster.Shard
	// ClusterShardInfo is a shard's identity: its coordinates in the fleet
	// and the sampling configuration it was built at.
	ClusterShardInfo = cluster.ShardInfo
	// BuildShardsOptions configures a deterministic fleet build.
	BuildShardsOptions = cluster.BuildOptions
	// ShardConn is the router's transport to one shard (HTTP or Comm).
	ShardConn = cluster.Conn
	// SeedRouter runs the distributed greedy loop over a shard fleet.
	SeedRouter = cluster.Router
	// RouterSelectResult is one routed selection: seeds plus degradation
	// and per-shard provenance.
	RouterSelectResult = cluster.SelectResult
	// RouterQuery is SketchQuery under its routed name; run it with
	// SeedRouter.SelectQuery.
	RouterQuery = cluster.RouterQuery
	// RouterSpreadResult is one routed spread estimate
	// (SeedRouter.Spread).
	RouterSpreadResult = cluster.SpreadResult
	// RouterServer is the HTTP front for a SeedRouter (POST /v1/seeds with
	// optional NDJSON streaming, /healthz, /v1/metrics).
	RouterServer = cluster.RouterServer
	// RouterServerConfig sets the router's admission-control limits.
	RouterServerConfig = cluster.RouterServerConfig
)

// ErrNoShards reports a routed query with every shard failed.
var ErrNoShards = cluster.ErrNoShards

// BuildShards samples one fleet deterministically: the union of the
// returned shards' samples is byte-identical to the single-process sample
// set at the same configuration, for any opt.Shards.
func BuildShards(g *Graph, opt BuildShardsOptions) ([]*ClusterShard, error) {
	return cluster.BuildShards(g, opt)
}

// SaveShardSnapshot persists one shard (identity header + standard sketch
// snapshot) at path with an atomic rename.
func SaveShardSnapshot(path string, sh *ClusterShard) error {
	return cluster.SaveShardSnapshotFile(path, sh)
}

// LoadShardSnapshot restores a shard from a snapshot written by
// SaveShardSnapshot. maxBytes bounds decode allocation (0 = default cap);
// p is the index-rebuild parallelism.
func LoadShardSnapshot(path string, maxBytes int64, p int) (*ClusterShard, error) {
	return cluster.LoadShardSnapshotFile(path, maxBytes, p)
}

// FetchShardSnapshot bootstraps a shard from a running peer replica's
// GET /v1/snapshot. base is the peer's base URL; client may be nil.
func FetchShardSnapshot(base string, client *http.Client, maxBytes int64, p int) (*ClusterShard, error) {
	return cluster.FetchShardSnapshot(base, client, maxBytes, p)
}

// NewShardHTTPConn dials one shard replica over HTTP. timeout is the
// per-operation net timeout that bounds failure detection.
func NewShardHTTPConn(base string, slot int, timeout time.Duration) ShardConn {
	return cluster.NewHTTPConn(base, slot, timeout)
}

// NewSeedRouter probes every shard, validates the fleet's identity
// (digest, sampling configuration, epoch), and returns a router ready to
// Select. At least one shard must answer; unreachable shards start failed
// and are re-probed on later queries. reg may be nil.
func NewSeedRouter(conns []ShardConn, reg *MetricsRegistry) (*SeedRouter, error) {
	return cluster.NewRouter(conns, reg)
}

// ServeRouter wraps a router in its HTTP front (no listener yet; call
// Start or mount Handler).
func ServeRouter(rt *SeedRouter, cfg RouterServerConfig) *RouterServer {
	return cluster.NewRouterServer(rt, cfg)
}
