package main

import (
	"fmt"
	"slices"
	"time"

	"influmax/benchmark/internal/span"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/rrr"
)

// minSolveRuns is the fewest cold runs a solve workload times, however
// short -seconds is.
const minSolveRuns = 3

// runSolve is solve-ic and solve-lt: cold imm.Run calls, one after
// another, on one generated graph.
func runSolve(c *runCtx) error {
	opt := c.options()
	if c.trace {
		return traceSolve(c, opt)
	}

	var (
		g           *graph.Graph
		ref         *imm.Result
		setupS, faS []float64
	)
	for i := 0; i < setups; i++ {
		start := time.Now()
		var err error
		if g, _, err = c.makeGraph(); err != nil {
			return err
		}
		// The warm-up run is also the first answer a caller gets.
		built := time.Now()
		if ref, err = imm.Run(g, opt); err != nil {
			return err
		}
		faS = append(faS, time.Since(built).Seconds())
		setupS = append(setupS, time.Since(start).Seconds())
	}
	c.e2e["setup_s"] = medianOf(setupS, "s")
	c.e2e["first_answer_s"] = medianOf(faS, "s")

	var lat []float64
	start := time.Now()
	for len(lat) < minSolveRuns || time.Since(start).Seconds() < c.seconds {
		t := time.Now()
		res, err := imm.Run(g, opt)
		if err != nil {
			return err
		}
		lat = append(lat, float64(time.Since(t))/1e6)
		c.check(slices.Equal(res.Seeds, ref.Seeds) && res.Theta == ref.Theta,
			"run %d chose other seeds than the warm-up run", len(lat))
	}
	wall := time.Since(start)
	_, tails := blockStats(lat, 0, c.spec.tailPct)
	c.e2e["op_p50_ms"] = medianOf(lat, "ms")
	c.e2e["op_tail_ms"] = exact(tails[0], "ms")
	c.e2e["ops_per_s"] = exact(float64(len(lat))/wall.Seconds(), "1/s")

	c.answer = goldenEntry{Seeds: ref.Seeds, CoverageFraction: ref.CoverageFraction, Theta: ref.Theta}
	return checkSolve(c, g, opt, ref)
}

// checkSolve runs the pipeline once more over the other store and holds
// the timed answer against it: coded and flat must choose the same seeds,
// and the reported coverage must be what the store's own index counts for
// those seeds.
func checkSolve(c *runCtx, g *graph.Graph, opt imm.Options, ref *imm.Result) error {
	var (
		other   *imm.Result
		idx     *rrr.Index
		samples int
		err     error
	)
	if opt.Store == imm.StoreCoded {
		var col *rrr.Collection
		other, col, idx, err = imm.RunCollect(g, opt)
		if err == nil {
			samples = col.Count()
		}
	} else {
		coded := opt
		coded.Store = imm.StoreCoded
		var col *rrr.CodedCollection
		other, col, idx, err = imm.RunSketch(g, coded)
		if err == nil {
			samples = col.Count()
		}
	}
	if err != nil {
		return err
	}
	c.check(slices.Equal(other.Seeds, ref.Seeds), "coded and flat stores chose different seeds: %v vs %v", other.Seeds, ref.Seeds)
	covered, _, err := imm.CoverageOf(samples, idx, nil, ref.Seeds, nil)
	if err != nil {
		return err
	}
	c.check(float64(covered)/float64(samples) == ref.CoverageFraction,
		"reported coverage %v, the index counts %d of %d", ref.CoverageFraction, covered, samples)
	return nil
}

// A staged is imm.Run's back half replayed one public call at a time, each
// under its own span.
type staged struct {
	sample, transcode, index, sel time.Duration
	entries                       int64 // RRR entries generated
	indexBytes                    int64
	seeds                         []graph.Vertex
}

func (s staged) total() time.Duration { return s.sample + s.transcode + s.index + s.sel }

// stagedRun generates `samples` samples and selects k seeds from them the
// way imm.Run does after estimation. sketch says whether the run goes
// through the byte-coded store (RunSketch) or stays on the flat arena
// (RunCollect); opt.Store then picks the labeling, as in RunSketch.
func (c *runCtx) stagedRun(g *graph.Graph, opt imm.Options, samples int, sketch bool, parent uint64) staged {
	var out staged
	root := c.rec.Begin("imm.run_staged", parent, 0)
	defer root.End()
	timed := func(name string, f func()) time.Duration {
		sp := c.rec.Begin(name, root.ID(), 0)
		start := time.Now()
		f()
		d := time.Since(start)
		sp.End()
		return d
	}

	col := rrr.NewCollection(g.NumVertices())
	sampler := imm.NewBatchSampler(g, opt)
	out.sample = timed("imm.sample", func() { sampler.Sample(col, samples) })
	out.entries = col.TotalSize()

	if !sketch {
		var idx *rrr.Index
		out.index = timed("rrr.build_index", func() { idx = rrr.BuildIndex(col, opt.Workers) })
		out.sel = timed("imm.select", func() { out.seeds, _ = imm.SelectSeedsIndexed(col, idx, opt.K, opt.Workers) })
		out.indexBytes = idx.Bytes()
		return out
	}
	var coded *rrr.CodedCollection
	out.transcode = timed("rrr.transcode", func() {
		var relab *rrr.Relabeling
		if opt.Store == imm.StoreCoded {
			relab = rrr.NewRelabeling(rrr.IncidenceOf(col, opt.Workers))
		}
		coded = rrr.FromCollection(col, relab)
	})
	var idx *rrr.Index
	out.index = timed("rrr.build_index", func() { idx = rrr.BuildIndexCoded(coded, opt.Workers) })
	out.sel = timed("imm.select", func() { out.seeds, _ = imm.SelectSeedsSketch(coded, idx, opt.K, opt.Workers) })
	out.indexBytes = idx.Bytes()
	return out
}

// engineLayer reports the imm and rrr metrics every workload has: the
// counters of one full run, and its split into stages.
func (c *runCtx) engineLayer(res *imm.Result, runS []float64, st []staged) {
	c.layer["imm.run_s"] = medianOf(runS, "s")
	c.layer["imm.coins_generated"] = exact(float64(res.CoinsGenerated), "count")
	c.layer["imm.frontier_passes"] = exact(float64(res.FrontierPasses), "count")
	c.layer["imm.batch_occupancy"] = exact(res.BatchOccupancy, "ratio")
	c.layer["imm.work_balance"] = exact(res.WorkBalance, "ratio")
	c.layer["imm.theta"] = exact(float64(res.Theta), "count")
	c.layer["imm.samples_generated"] = exact(float64(res.SamplesGenerated), "count")
	c.layer["rrr.store_bytes"] = exact(float64(res.StoreBytes), "B")
	c.layer["rrr.bytes_per_sample"] = exact(float64(res.StoreBytes)/float64(res.SamplesGenerated), "B")
	c.layer["rrr.coded_ratio"] = exact(float64(res.FlatStoreBytes)/float64(res.StoreBytes), "ratio")

	var sample, transcode, index, sel, total []float64
	for _, s := range st {
		sample = append(sample, s.sample.Seconds())
		transcode = append(transcode, s.transcode.Seconds())
		index = append(index, s.index.Seconds())
		sel = append(sel, s.sel.Seconds())
		total = append(total, s.total().Seconds())
	}
	entries := float64(st[0].entries)
	c.layer["imm.sample_s"] = medianOf(sample, "s")
	c.layer["imm.sample_ns_per_entry"] = exact(median(sample)*1e9/entries, "ns")
	c.layer["rrr.transcode_s"] = medianOf(transcode, "s")
	c.layer["rrr.build_index_s"] = medianOf(index, "s")
	c.layer["rrr.index_bytes"] = exact(float64(st[0].indexBytes), "B")
	c.layer["imm.select_s"] = medianOf(sel, "s")
	c.layer["imm.select_ns_per_entry"] = exact(median(sel)*1e9/entries, "ns")
	c.layer["imm.estimate_overhead_s"] = exact(median(runS)-median(total), "s")
}

// traceSolve is the traced pass of a solve workload: full runs alternate
// between bare and span-wrapped, then the staged replay splits one.
func traceSolve(c *runCtx, opt imm.Options) error {
	g, genDur, err := c.makeGraph()
	if err != nil {
		return err
	}
	c.graphLayer(g, genDur)
	ref, err := imm.Run(g, opt)
	if err != nil {
		return err
	}

	var bare, wrapped []float64
	cpu0, start := cpuTime(), time.Now()
	for len(wrapped) < minSolveRuns || time.Since(start).Seconds() < c.seconds/2 {
		for _, traced := range []bool{false, true} {
			var rec *span.Recorder
			if traced {
				rec = c.rec
			}
			t := time.Now()
			sp := rec.Begin("imm.run", 0, uint64(len(wrapped)+1))
			res, err := imm.Run(g, opt)
			sp.End()
			if err != nil {
				return err
			}
			if traced {
				wrapped = append(wrapped, time.Since(t).Seconds())
			} else {
				bare = append(bare, time.Since(t).Seconds())
			}
			c.check(slices.Equal(res.Seeds, ref.Seeds), "a traced-pass run chose other seeds than the first")
		}
	}
	c.layer["bench.cpu_util"] = exact(cpuUtil(cpu0, time.Since(start)), "ratio")
	c.layer["bench.trace_overhead_ratio"] = exact(median(wrapped)/median(bare), "ratio")

	var st []staged
	for i := 0; i < minSolveRuns; i++ {
		s := c.stagedRun(g, opt, ref.SamplesGenerated, opt.Store == imm.StoreCoded, 0)
		c.check(slices.Equal(s.seeds, ref.Seeds), "the staged replay chose other seeds than imm.Run")
		st = append(st, s)
	}
	c.engineLayer(ref, bare, st)
	c.answer = goldenEntry{Seeds: ref.Seeds, CoverageFraction: ref.CoverageFraction, Theta: ref.Theta}
	if c.answer.Seeds == nil {
		return fmt.Errorf("%s: imm.Run returned no seeds", c.spec.name)
	}
	return nil
}
