package imm

import (
	"time"

	"influmax/internal/graph"
	"influmax/internal/metrics"
	"influmax/internal/rrr"
	"influmax/internal/trace"
)

// Result reports an IMM run: the seed set (in greedy selection order), the
// quality estimate, the sample-count bookkeeping and the per-phase timings
// that the paper's figures break runtimes into.
type Result struct {
	// Algorithm names the implementation that produced the result, as in
	// Table 3: "IMM" (RunBaseline), "IMMopt" (Run, one worker) or "IMMmt"
	// (Run, several workers).
	Algorithm string
	// Seeds is the selected seed set in the order the greedy chose it.
	Seeds []graph.Vertex
	// CoverageFraction is F_R(S), the fraction of samples covered by Seeds.
	CoverageFraction float64
	// EstimatedSpread is the unbiased spread estimate n * F_R(S).
	EstimatedSpread float64
	// Theta is the number of samples the estimation deemed sufficient.
	Theta int64
	// SamplesGenerated is the total number of samples actually generated
	// (estimation iterations may overshoot Theta; all are kept, as in
	// Algorithm 1).
	SamplesGenerated int
	// LowerBound is the martingale lower bound on OPT found by Algorithm 2.
	LowerBound float64
	// Store is the representation the final seed selection ran over: the
	// flat arena, or the bit matrix when Run found the draw dense
	// (StoreMatrix, DESIGN.md §13.6); for RunSketch, the labeling of the
	// coded store it kept.
	Store StoreKind
	// StoreBytes is the footprint of the store the selection ran over.
	StoreBytes int64
	// FlatStoreBytes is what the same samples cost in the flat arena layout
	// (4 bytes per entry + 8 per sample offset; the Table 2 memory column) —
	// equal to StoreBytes for flat runs, the compression-ratio denominator
	// for coded and matrix ones.
	FlatStoreBytes int64
	// IndexBytes is the footprint of the inverted incidence index built for
	// the final seed selection (zero for the baseline, whose NaiveStore
	// carries the incidence permanently inside StoreBytes, and for the bit
	// matrix, which is its own index).
	IndexBytes int64
	// Phases is the wall-clock breakdown of the figures' stacked bars.
	Phases trace.Times
	// Workers is the resolved thread count.
	Workers int
	// FrontierPasses is the number of fused frontier passes executed
	// (zero under the scalar kernel).
	FrontierPasses int64
	// CoinsGenerated is the number of pseudorandom coins the fused kernel
	// generated in blocks (zero under the scalar kernel, which draws
	// per-edge instead).
	CoinsGenerated int64
	// BatchOccupancy is the mean fraction of fused lane slots holding a
	// live frontier per pass (0 under the scalar kernel; 1.0 = every lane
	// of every pass was live).
	BatchOccupancy float64
	// WorkBalance is avg/max of per-worker sampling work (1.0 = perfect):
	// the load balance that bounds sampling-phase scaling efficiency.
	WorkBalance float64
	// WorkerWork is the raw per-worker sampling work (RRR entries each
	// worker generated) underlying WorkBalance; index = worker rank.
	WorkerWork []int64

	// scalar records that the scalar kernel sampled (LeapFrog RNG or the
	// baseline), which the report names instead of "fused".
	scalar bool
}

// Run executes parallel IMM (Algorithm 1) over g: IMMopt when
// opt.Workers == 1, IMMmt when opt.Workers > 1. The final seed selection
// runs over the samples as drawn: the flat arena and the index the
// estimation rounds extended (StoreFlat), or, when the draw was dense, the
// bit matrix the samples were drawn into (StoreMatrix, DESIGN.md §13.6),
// which needs no index. opt.Store is not read: a coded store only pays
// where it is kept, which RunSketch and the serving layer do.
func Run(g *graph.Graph, opt Options) (*Result, error) {
	res, s, err := draw(g, opt)
	if err != nil {
		return nil, err
	}
	n := float64(g.NumVertices())
	if s.mat != nil {
		res.Store = StoreMatrix
		selectFinal(res, n, s.mat.Bytes(), nil, opt.Metrics, func() ([]graph.Vertex, int64) {
			return selectMatrix(s.mat, s.p, opt.K)
		})
		return res, nil
	}
	col, idx := s.flat(res)
	selectFlat(res, n, opt, col, idx)
	return res, nil
}

// Draw is the front half of Algorithm 1: theta estimation (Algorithm 2)
// and sampling to theta (Algorithm 3) into a flat arena, and the inverted
// incidence index of every sample drawn. Each estimation round extends
// the index over the samples drawn since the last (accounted to
// Estimation), and Draw extends it over the final draw (IndexBuild; free
// when the search already overshot theta), so each sample is indexed
// once. A dense draw is held as a bit matrix instead (DESIGN.md §13.6)
// and materialised into the arena and index once, at the end. Draw fills
// only the sampling bookkeeping (theta, lower bound, sample count, flat
// footprint, balance, fused-kernel counters, rrr/balance gauge) and
// selects no seeds. Every pipeline composes Draw or DrawCoded and, when
// it wants seeds, a selection over the drawn index.
func Draw(g *graph.Graph, opt Options) (*Result, *rrr.Collection, *rrr.Index, error) {
	res, s, err := draw(g, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	col, idx := s.flat(res)
	return res, col, idx, nil
}

// DrawCoded is Draw with the samples transcoded into the byte-coded store
// before the index is extended over the final draw: opt.Store picks the
// labeling (StoreCoded: the frequency relabeling of DESIGN.md §13), the
// transcode is accounted to Other, and the flat arena is dropped before
// the extension reads the new samples from the coded store, so the arena
// and both generations of the index are never resident together. The
// index is labeling-invariant: it equals Draw's, byte for byte.
func DrawCoded(g *graph.Graph, opt Options) (*Result, *rrr.CodedCollection, *rrr.Index, error) {
	res, s, err := draw(g, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	res.Store = opt.Store
	coded, idx := s.coded(res, opt.Store)
	return res, coded, idx, nil
}

// draw runs Draw's estimation and sampling, returning the samples with the
// index the estimation rounds left and the sampling bookkeeping filled.
// It is where the density switch lives: on the fused engine the first
// block of the first round decides between the flat arena and the bit
// matrix (localSamples).
func draw(g *graph.Graph, opt Options) (*Result, *localSamples, error) {
	opt = opt.withDefaults()
	if err := opt.validate(g.NumVertices()); err != nil {
		return nil, nil, err
	}
	res := &Result{Algorithm: "IMMopt", Workers: opt.Workers, scalar: !opt.fused()}
	if opt.Workers > 1 {
		res.Algorithm = "IMMmt"
	}
	startOther := time.Now()
	n := g.NumVertices()
	st := NewBatchSampler(g, opt)
	s := &localSamples{st: st, col: rrr.NewCollection(n), p: opt.Workers, densify: opt.fused()}
	if opt.Metrics != nil {
		s.mIndexEntries = opt.Metrics.Counter("rrr/index-entries")
	}
	tm := NewAnalysis(n, opt.K, opt.Epsilon, opt.L)
	res.Phases.Add(trace.Other, time.Since(startOther))
	// Local samples never fail.
	res.Theta, res.LowerBound, _ = Estimate(s, tm, opt.K, &res.Phases)
	res.SamplesGenerated = s.count()
	if s.mat != nil {
		res.FlatStoreBytes = rrr.FlatBytes(s.mat.Count(), s.mat.TotalSize())
	} else {
		res.FlatStoreBytes = s.col.Bytes()
	}
	res.WorkBalance = st.WorkBalance()
	res.WorkerWork = append([]int64(nil), st.Work...)
	fs := st.fusedTotals
	res.FrontierPasses = fs.Passes
	res.CoinsGenerated = fs.Coins
	res.BatchOccupancy = fs.Occupancy()
	if opt.Metrics != nil {
		// Permille, because gauges are integers: 1000 = perfectly balanced.
		opt.Metrics.Gauge("rrr/balance").Set(int64(res.WorkBalance * 1000))
	}
	s.st = nil // the sampler's per-worker state is garbage from here on
	return res, s, nil
}

// selectFinal records the footprints of the selection's store and index
// idx (and their gauges, when reg is set), then times phase 3, SelectSeeds
// (Algorithm 4): the seeds sel picks, their coverage of the
// res.SamplesGenerated samples and the spread estimate over n vertices.
func selectFinal(res *Result, n float64, storeBytes int64, idx *rrr.Index, reg *metrics.Registry, sel func() ([]graph.Vertex, int64)) {
	res.StoreBytes = storeBytes
	if idx != nil {
		res.IndexBytes = idx.Bytes()
	}
	if reg != nil {
		reg.Gauge("rrr/store-bytes").Set(res.StoreBytes)
		reg.Gauge("rrr/index-bytes").Set(res.IndexBytes)
	}
	res.Phases.Measure(trace.SelectSeeds, func() {
		var cov int64
		res.Seeds, cov = sel()
		if res.SamplesGenerated > 0 {
			res.CoverageFraction = float64(cov) / float64(res.SamplesGenerated)
		}
		res.EstimatedSpread = res.CoverageFraction * n
	})
}

// selectFlat is phase 3 over a flat collection and its index.
func selectFlat(res *Result, n float64, opt Options, col *rrr.Collection, idx *rrr.Index) {
	selectFinal(res, n, col.Bytes(), idx, opt.Metrics, func() ([]graph.Vertex, int64) {
		return selectPlain(NewFlatCoverage(col, idx, nil, res.Workers), idx, opt.K)
	})
}

// RunCollect executes the same pipeline as Run but additionally returns
// the finished sample collection and the inverted incidence index the
// final selection used — the resident sketch a serving process keeps so
// later queries for any k <= opt.K skip sampling entirely. The returned
// collection and index must be treated as immutable if they are shared.
// RunCollect always works on the flat arena (opt.Store is ignored, and a
// dense draw is materialised into it); callers that want the byte-coded
// store use RunSketch.
func RunCollect(g *graph.Graph, opt Options) (*Result, *rrr.Collection, *rrr.Index, error) {
	res, col, idx, err := Draw(g, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	// Phase 3: SelectSeeds (Algorithm 4, index-driven purge).
	selectFlat(res, float64(g.NumVertices()), opt, col, idx)
	return res, col, idx, nil
}

// RunSketch executes the pipeline with the finished samples transcoded
// into a byte-coded store before selection (DrawCoded), returning the
// coded collection and its index — the resident sketch a serving process
// keeps. opt.Store picks the labeling: StoreCoded transcodes under the
// frequency-ordered relabeling (DESIGN.md §13); StoreFlat keeps the
// identity labeling, which preserves per-member delta coding but no
// reordering. Either way the flat arena is dropped after transcoding and
// the seeds are byte-identical to RunCollect over the same options. The
// transcode (incidence count, relabel-table build, re-encode) is
// accounted to the Other phase.
func RunSketch(g *graph.Graph, opt Options) (*Result, *rrr.CodedCollection, *rrr.Index, error) {
	res, coded, idx, err := DrawCoded(g, opt)
	if err != nil {
		return nil, nil, nil, err
	}
	selectFinal(res, float64(g.NumVertices()), coded.Bytes(), idx, opt.Metrics, func() ([]graph.Vertex, int64) {
		return selectPlain(NewCodedCoverage(coded, idx, nil, res.Workers), idx, opt.K)
	})
	return res, coded, idx, nil
}

// RunBaseline executes the sequential Tang-style baseline ("IMM" in
// Tables 2 and 3): single-threaded sampling into the bidirectional
// pointer-heavy hypergraph store, and incidence-driven seed selection.
// Options.Workers is ignored (forced to 1).
func RunBaseline(g *graph.Graph, opt Options) (*Result, error) {
	opt.Workers = 1
	opt = opt.withDefaults()
	if err := opt.validate(g.NumVertices()); err != nil {
		return nil, err
	}
	res := &Result{Algorithm: "IMM", Workers: 1, scalar: true}
	startOther := time.Now()
	n := g.NumVertices()
	store := rrr.NewNaiveStore(n)
	st := NewBatchSampler(g, opt)
	tm := NewAnalysis(n, opt.K, opt.Epsilon, opt.L)
	res.Phases.Add(trace.Other, time.Since(startOther))
	// The baseline's samples never fail either.
	res.Theta, res.LowerBound, _ = Estimate(naiveSamples{st, store}, tm, opt.K, &res.Phases)
	res.SamplesGenerated = store.Count()
	selectFinal(res, tm.N(), store.Bytes(), nil, nil, func() ([]graph.Vertex, int64) {
		return SelectSeedsNaive(store, opt.K)
	})
	return res, nil
}
