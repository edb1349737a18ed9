package dist

import (
	"influmax/internal/imm"
	"influmax/internal/metrics"
	"influmax/internal/mpi"
	"influmax/internal/trace"
)

// RankReport converts this rank's result into its metrics sub-report.
func (r *Result) RankReport() metrics.RankReport {
	return metrics.RankReport{
		Rank:         r.Rank,
		LocalSamples: int64(r.LocalSamples),
		LocalWork:    r.LocalWork,
		StoreBytes:   r.StoreBytes,
		IndexBytes:   r.IndexBytes,
		PhaseSeconds: r.Phases.Seconds(),
		TotalSeconds: r.Phases.Total().Seconds(),
		Comm:         r.CommStats.Map(),
	}
}

// Report assembles the distributed run's metrics.RunReport. It is a
// collective: every rank must call it with its own Result (all ranks pass
// identical opt, as with Run). Rank 0 returns the merged report carrying
// one RankReport per rank; every other rank returns (nil, nil).
func Report(c mpi.Comm, opt Options, res *Result) (*metrics.RunReport, error) {
	perRank, err := metrics.GatherRankReports(c, res.RankReport())
	if err != nil {
		return nil, err
	}
	if c.Rank() != 0 {
		return nil, nil
	}
	return buildReport(opt, res, perRank), nil
}

// ReportLocal assembles the merged report from all ranks' results already
// present in one address space (the in-process cluster path used by the
// harness), without collectives. results must be indexed by rank.
func ReportLocal(opt Options, results []*Result) *metrics.RunReport {
	perRank := make([]metrics.RankReport, len(results))
	for r, res := range results {
		perRank[r] = res.RankReport()
	}
	return buildReport(opt, results[0], perRank)
}

// buildReport merges rank 0's result with the gathered per-rank
// sub-reports: global bookkeeping comes from rank 0 (identical on all
// ranks by construction), store bytes and sampling work are summed across
// ranks, and the work balance is avg/max of per-rank work — the quantity
// that bounds the strong scaling of Figures 7-8.
func buildReport(opt Options, root *Result, perRank []metrics.RankReport) *metrics.RunReport {
	rep := metrics.NewRunReport("IMMdist", root.Phases)
	rep.Model = opt.Model.String()
	rep.K = opt.K
	rep.Epsilon = opt.Epsilon
	rep.Seed = opt.Seed
	rep.Ranks = root.Ranks
	rep.ThreadsPerRank = root.ThreadsPerRank
	rep.Theta = root.Theta
	rep.SamplesGenerated = root.SamplesGenerated
	rep.LowerBound = root.LowerBound
	rep.Seeds = root.Seeds
	rep.CoverageFraction = root.CoverageFraction
	rep.EstimatedSpread = root.EstimatedSpread
	rep.HeapBytes = trace.HeapAlloc()
	rep.PerRank = perRank
	rep.Store = imm.StoreFlat.String()

	work := make([]int64, len(perRank))
	h := metrics.NewHistogram()
	comm := make(map[string]int64)
	for r, sub := range perRank {
		rep.StoreBytes += sub.StoreBytes
		rep.IndexBytes += sub.IndexBytes
		work[r] = sub.LocalWork
		h.Observe(sub.LocalWork)
		for name, v := range sub.Comm {
			comm[name] += v
		}
	}
	rep.FlatStoreBytes = rep.StoreBytes // every shard is a flat arena
	rep.WorkerWork = work
	rep.WorkBalance = metrics.WorkBalanceOf(work)
	rep.WorkHistogram = h.Snapshot()
	// Transport and fault-injection counters, summed across ranks, land
	// under their "mpi/..." names in the metrics snapshot.
	if len(comm) > 0 {
		if rep.Metrics == nil {
			rep.Metrics = &metrics.Snapshot{}
		}
		if rep.Metrics.Counters == nil {
			rep.Metrics.Counters = make(map[string]int64)
		}
		for name, v := range comm {
			rep.Metrics.Counters[name] += v
		}
	}
	return rep
}
