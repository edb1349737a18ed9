package imm

import (
	"influmax/internal/metrics"
	"influmax/internal/trace"
)

// Report assembles the structured metrics.RunReport of a finished run.
// opt must be the Options the run was invoked with (it supplies the
// configuration half of the report; the Result supplies the outcome). The
// registry snapshot of opt.Metrics, if any, rides along, so a single call
// captures both the bookkeeping and the engine-internal instruments.
func (r *Result) Report(opt Options) *metrics.RunReport {
	rep := metrics.NewRunReport(r.Algorithm, r.Phases)
	rep.Model = opt.Model.String()
	rep.K = opt.K
	rep.Epsilon = opt.Epsilon
	rep.Seed = opt.Seed
	rep.Workers = r.Workers
	rep.Theta = r.Theta
	rep.SamplesGenerated = int64(r.SamplesGenerated)
	rep.LowerBound = r.LowerBound
	rep.Seeds = r.Seeds
	rep.CoverageFraction = r.CoverageFraction
	rep.EstimatedSpread = r.EstimatedSpread
	rep.Kernel = "fused"
	if r.scalar {
		rep.Kernel = "scalar"
	}
	rep.FrontierPasses = r.FrontierPasses
	rep.CoinsGenerated = r.CoinsGenerated
	rep.BatchOccupancy = r.BatchOccupancy
	rep.Store = r.Store.String()
	rep.StoreBytes = r.StoreBytes
	rep.FlatStoreBytes = r.FlatStoreBytes
	rep.IndexBytes = r.IndexBytes
	rep.HeapBytes = trace.HeapAlloc()
	if len(r.WorkerWork) > 0 {
		rep.WorkerWork = r.WorkerWork
		rep.WorkBalance = r.WorkBalance
		h := metrics.NewHistogram()
		h.ObserveAll(r.WorkerWork)
		rep.WorkHistogram = h.Snapshot()
	}
	if opt.Metrics != nil {
		rep.Metrics = opt.Metrics.Snapshot()
	}
	return rep
}
