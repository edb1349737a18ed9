package imm

import (
	"math"
	"time"

	"influmax/internal/graph"
	"influmax/internal/rrr"
	"influmax/internal/stats"
	"influmax/internal/trace"
)

// TIM+ (Tang, Xiao, Shi, SIGMOD 2014 — reference [4] of the paper) is
// IMM's predecessor: the same RIS skeleton, but theta is derived from a
// coarser lower bound KPT on OPT, estimated by measuring the expected
// width-based coverage kappa(R) = 1 - (1 - w(R)/m)^k of small sample
// batches (w(R) is the number of edges entering R's members), optionally
// refined by an intermediate greedy (the "+" in TIM+). IMM's martingale
// bound dominates it — TIM+ typically needs several times more samples
// for the same guarantee, which RunTIMPlus lets the benchmarks quantify.

// TIMResult extends Result with TIM+'s intermediate estimates.
type TIMResult struct {
	Result
	// KPTStar is the first-phase estimate of OPT's lower bound.
	KPTStar float64
	// KPTPlus is the refined bound actually used for theta.
	KPTPlus float64
}

// RunTIMPlus executes TIM+ over g. Options are interpreted as for Run
// (Workers parallelizes sampling and selection identically).
func RunTIMPlus(g *graph.Graph, opt Options) (*TIMResult, error) {
	opt = opt.withDefaults()
	if err := opt.validate(g.NumVertices()); err != nil {
		return nil, err
	}
	res := &TIMResult{}
	res.Workers = opt.Workers
	startOther := time.Now()
	n := g.NumVertices()
	nf := float64(n)
	m := float64(g.NumEdges())
	if m == 0 {
		m = 1
	}
	l := opt.L
	k := opt.K
	col := rrr.NewCollection(n)
	st := NewBatchSampler(g, opt)
	res.Phases.Add(trace.Other, time.Since(startOther))

	// Phase 1: KPT* estimation (Algorithm 2 of Tang et al. 2014).
	res.Phases.Measure(trace.Estimation, func() {
		kpt := 1.0
		maxI := int(math.Max(1, math.Floor(math.Log2(nf))-1))
		for i := 1; i <= maxI; i++ {
			ci := int64((float64(6*l*math.Log(nf)) + float64(6*math.Log(math.Log2(nf)))) * math.Pow(2, float64(i)))
			// Grow the collection to ci total samples.
			if int64(col.Count()) < ci {
				st.Sample(col, int(ci)-col.Count())
			}
			sum := 0.0
			for j := 0; j < int(ci) && j < col.Count(); j++ {
				w := 0.0
				for _, v := range col.Sample(j) {
					w += float64(g.InDegree(v))
				}
				kappa := 1 - math.Pow(1-w/m, float64(k))
				sum += kappa
			}
			avg := sum / float64(ci)
			if avg > 1/math.Pow(2, float64(i)) {
				kpt = nf * avg / 2
				break
			}
		}
		res.KPTStar = kpt

		// Phase 2 ("+"): refine KPT with an intermediate greedy. Select
		// seeds on the current collection, then estimate their coverage on
		// a fresh batch; KPT+ = max(KPT*, F*n/(1+eps')).
		epsPrime := float64(5 * math.Cbrt(l*opt.Epsilon*opt.Epsilon/(l+float64(k))))
		seeds, _ := SelectSeeds(col, k, opt.Workers)
		lambdaPrime := (2 + epsPrime) * l * nf * math.Log(nf) / (epsPrime * epsPrime)
		need := int64(math.Ceil(lambdaPrime / kpt))
		fresh := rrr.NewCollection(n)
		// Cap the refinement batch to keep the phase bounded, as Tang's
		// implementation does.
		if need > 4*int64(col.Count())+1024 {
			need = 4*int64(col.Count()) + 1024
		}
		st.Sample(fresh, int(need))
		covered := 0
		for j := 0; j < fresh.Count(); j++ {
			for _, s := range seeds {
				if fresh.Contains(j, s) {
					covered++
					break
				}
			}
		}
		f := float64(covered) / float64(fresh.Count())
		kptPlus := f * nf / (1 + epsPrime)
		if kptPlus < kpt {
			kptPlus = kpt
		}
		res.KPTPlus = kptPlus
	})

	// Phase 3: sampling with TIM's lambda.
	res.Phases.Measure(trace.Sampling, func() {
		lambda := (8 + 2*opt.Epsilon) * nf *
			(float64(l*math.Log(nf)) + stats.LogBinomial(int64(n), int64(k)) + math.Ln2) /
			(opt.Epsilon * opt.Epsilon)
		res.Theta = int64(math.Ceil(lambda / res.KPTPlus))
		st.Sample(col, int(res.Theta)-col.Count())
	})

	// Phase 4: final selection, over the inverted incidence index.
	_, idx := FinalIndex(col, StoreFlat, false, opt.Workers, &res.Phases)
	res.IndexBytes = idx.Bytes()
	selectFinal(&res.Result, nf, col.Count(), func() ([]graph.Vertex, int64) {
		return SelectSeedsIndexed(col, idx, k, opt.Workers)
	})
	res.SamplesGenerated = col.Count()
	res.StoreBytes = col.Bytes()
	res.LowerBound = res.KPTPlus
	return res, nil
}
