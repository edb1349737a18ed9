package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"influmax/internal/graph"
	"influmax/internal/trace"
)

// SchemaVersion is the RunReport wire-format version, serialized as the
// "schema" field. Bump it only on incompatible changes; additive fields
// keep the version (consumers must ignore unknown fields).
const SchemaVersion = 1

// GraphInfo summarizes the input graph inside a report.
type GraphInfo struct {
	Vertices  int     `json:"vertices"`
	Edges     int64   `json:"edges"`
	AvgDegree float64 `json:"avgDegree"`
	MaxDegree int     `json:"maxDegree"`
}

// GraphInfoFor converts computed graph statistics into report form.
func GraphInfoFor(st graph.Stats) *GraphInfo {
	return &GraphInfo{
		Vertices:  st.Vertices,
		Edges:     st.Edges,
		AvgDegree: st.AvgDegree,
		MaxDegree: st.MaxDegree,
	}
}

// VerifiedSpread records an optional Monte Carlo check of the seed set.
type VerifiedSpread struct {
	Mean   float64 `json:"mean"`
	StdErr float64 `json:"stdErr"`
	Trials int     `json:"trials"`
}

// RankReport is one rank's contribution to a distributed RunReport: the
// per-rank breakdown behind the paper's Figures 7-8 (who did how much
// sampling work, who holds how many bytes, where each rank's time went).
type RankReport struct {
	Rank           int                `json:"rank"`
	LocalSamples   int64              `json:"localSamples"`
	LocalWork      int64              `json:"localWork"`
	StoreBytes     int64              `json:"storeBytes"`
	FlatStoreBytes int64              `json:"flatStoreBytes,omitempty"`
	IndexBytes     int64              `json:"indexBytes,omitempty"`
	PhaseSeconds   map[string]float64 `json:"phaseSeconds"`
	TotalSeconds   float64            `json:"totalSeconds"`
	// Comm carries the rank's nonzero transport/fault-injection counters
	// ("mpi/retries", "mpi/drops-injected", "mpi/frames-rejected", ...);
	// buildReport folds their per-rank sums into the merged report's
	// Metrics snapshot.
	Comm map[string]int64 `json:"comm,omitempty"`
}

// RunReport is the machine-readable record of one influence-maximization
// run: configuration, outcome, phase timings, memory footprint, and load
// balance, unified across the shared-memory and distributed paths. One
// JSON document per run; see SchemaVersion for evolution rules.
type RunReport struct {
	Schema    int    `json:"schema"`
	Algorithm string `json:"algorithm"`
	Model     string `json:"model,omitempty"`

	K              int     `json:"k"`
	Epsilon        float64 `json:"epsilon"`
	Seed           uint64  `json:"seed"`
	Workers        int     `json:"workers,omitempty"`
	Ranks          int     `json:"ranks,omitempty"`
	ThreadsPerRank int     `json:"threadsPerRank,omitempty"`

	Graph *GraphInfo `json:"graph,omitempty"`

	Theta            int64          `json:"theta"`
	SamplesGenerated int64          `json:"samplesGenerated"`
	LowerBound       float64        `json:"lowerBound,omitempty"`
	Seeds            []graph.Vertex `json:"seeds,omitempty"`
	CoverageFraction float64        `json:"coverageFraction"`
	EstimatedSpread  float64        `json:"estimatedSpread"`

	// Kernel names the sampling kernel that ran ("fused" for per-sample
	// RNG, "scalar" for leap-frog and the baseline); FrontierPasses, CoinsGenerated and BatchOccupancy are
	// the fused kernel's work counters (all zero under the scalar kernel —
	// see EXPERIMENTS.md, "Reading the kernel counters").
	Kernel         string  `json:"kernel,omitempty"`
	FrontierPasses int64   `json:"frontierPasses,omitempty"`
	CoinsGenerated int64   `json:"coinsGenerated,omitempty"`
	BatchOccupancy float64 `json:"batchOccupancy,omitempty"`

	// Store names the RRR store representation the final selection ran
	// over ("flat" or "coded"); FlatStoreBytes is what the same samples
	// cost in the flat layout, so StoreBytes/FlatStoreBytes is the
	// compression ratio (see EXPERIMENTS.md, "Reading the memory gauges").
	Store          string `json:"store,omitempty"`
	StoreBytes     int64  `json:"storeBytes"`
	FlatStoreBytes int64  `json:"flatStoreBytes,omitempty"`
	IndexBytes     int64  `json:"indexBytes,omitempty"`
	HeapBytes      uint64 `json:"heapBytes,omitempty"`

	PhaseSeconds map[string]float64 `json:"phaseSeconds"`
	TotalSeconds float64            `json:"totalSeconds"`

	// WorkerWork is the raw per-worker sampling work (RRR entries
	// generated by each thread); WorkHistogram is its log-bucket summary
	// and WorkBalance its avg/max ratio (1.0 = perfect balance).
	WorkerWork    []int64            `json:"workerWork,omitempty"`
	WorkHistogram *HistogramSnapshot `json:"workHistogram,omitempty"`
	WorkBalance   float64            `json:"workBalance,omitempty"`

	// PerRank holds one sub-report per rank for distributed runs, merged
	// at rank 0 over the mpi GatherBytes collective.
	PerRank []RankReport `json:"perRank,omitempty"`

	// Dynamic-graph maintenance counters, all zero for static sketches:
	// DeltaEpoch is how many delta batches the serving sketch has folded
	// in, the rest are cumulative repair totals (DESIGN.md §15). Additive
	// fields; the schema version is unchanged.
	DeltaEpoch         uint64 `json:"deltaEpoch,omitempty"`
	DeltasApplied      int64  `json:"deltasApplied,omitempty"`
	SamplesInvalidated int64  `json:"samplesInvalidated,omitempty"`

	// Metrics carries an optional registry snapshot (engine-internal
	// counters and histograms such as RRR set sizes).
	Metrics *Snapshot `json:"metrics,omitempty"`

	Verified *VerifiedSpread `json:"verified,omitempty"`

	// Interrupted marks a partial report flushed by a signal handler: the
	// run was killed before completing, so outcome fields (seeds, timings)
	// may be absent or reflect only the work done so far. Additive field;
	// the schema version is unchanged.
	Interrupted bool `json:"interrupted,omitempty"`
}

// NewRunReport returns a report with the schema stamped and the phase map
// filled from the trace breakdown; callers populate the rest.
func NewRunReport(algorithm string, phases trace.Times) *RunReport {
	return &RunReport{
		Schema:       SchemaVersion,
		Algorithm:    algorithm,
		PhaseSeconds: phases.Seconds(),
		TotalSeconds: phases.Total().Seconds(),
	}
}

// WorkBalanceOf returns avg/max of a work vector (1.0 = perfect balance,
// 0 = no recorded work) — the scaling-efficiency bound the paper's
// Figures 5-8 discuss.
func WorkBalanceOf(work []int64) float64 {
	var total, maxW int64
	for _, w := range work {
		total += w
		if w > maxW {
			maxW = w
		}
	}
	if maxW == 0 {
		return 0
	}
	return float64(total) / float64(len(work)) / float64(maxW)
}

// JSON serializes the report as indented JSON.
func (r *RunReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteFile writes the report as one indented-JSON document at path.
func (r *RunReport) WriteFile(path string) error {
	buf, err := r.JSON()
	if err != nil {
		return fmt.Errorf("metrics: encode report: %w", err)
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReportLog collects the reports of many runs (one experiments invocation
// produces one report per IMM run). Safe for concurrent Add.
type ReportLog struct {
	mu      sync.Mutex
	reports []*RunReport
}

// NewReportLog returns an empty log.
func NewReportLog() *ReportLog { return &ReportLog{} }

// Add appends a report.
func (l *ReportLog) Add(r *RunReport) {
	l.mu.Lock()
	l.reports = append(l.reports, r)
	l.mu.Unlock()
}

// Len returns the number of collected reports.
func (l *ReportLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.reports)
}

// Reports returns the collected reports in Add order.
func (l *ReportLog) Reports() []*RunReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*RunReport(nil), l.reports...)
}

// WriteFile writes the collected reports as one JSON array at path.
func (l *ReportLog) WriteFile(path string) error {
	l.mu.Lock()
	buf, err := json.MarshalIndent(l.reports, "", "  ")
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("metrics: encode report log: %w", err)
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
