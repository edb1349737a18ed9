package imm

import (
	"time"

	"influmax/internal/metrics"
	"influmax/internal/rrr"
	"influmax/internal/trace"
)

// Samples is a growing sample set as Estimate sees it, wherever the
// samples live: one process's store or the ranks of a sample-partitioned
// job (DESIGN.md §19). Both calls answer for the whole job, so in a
// distributed run every rank calls them in step and gets the same numbers
// back.
type Samples interface {
	// Extend draws count more samples (none when count <= 0) and returns
	// how many exist now.
	Extend(count int64) (total int64, err error)
	// Cover selects k seeds greedily over every sample drawn so far and
	// returns how many samples they cover.
	Cover(k int) (covered int64, err error)
}

// Estimate is the front half of Algorithm 1, written once. EstimateTheta
// (Algorithm 2) extends s and re-selects until the coverage certifies lb,
// a lower bound on OPT, and Sample (Algorithm 3) then extends s to theta.
// The search is timed under Estimation and the final draw under Sampling.
// An error from s ends the run with the phases so far recorded; theta and
// lb are returned with an error from the final draw, zero with one from
// the search.
func Estimate(s Samples, tm Analysis, k int, phases *trace.Times) (theta int64, lb float64, err error) {
	start := time.Now()
	lb = 1
	var total, cov int64
	for x := 1; x <= tm.maxX; x++ {
		if total, err = s.Extend(tm.ThetaAt(x) - total); err == nil {
			cov, err = s.Cover(k)
		}
		if err != nil {
			phases.Add(trace.Estimation, time.Since(start))
			return 0, 0, err
		}
		if nF := tm.N() * float64(cov) / float64(total); nF >= tm.ThresholdAt(x) {
			lb = tm.LowerBound(nF)
			break
		}
	}
	theta = tm.FinalTheta(lb)
	phases.Add(trace.Estimation, time.Since(start))

	start = time.Now()
	_, err = s.Extend(theta - total)
	phases.Add(trace.Sampling, time.Since(start))
	return theta, lb, err
}

// localSamples are one process's samples in a flat arena, and the
// incidence index of every sample up to the last Cover: each Cover extends
// the index over the samples drawn since, so a draw indexes each sample
// once however many rounds re-select over it.
type localSamples struct {
	st  *BatchSampler
	col *rrr.Collection
	idx *rrr.Index // nil until the first Cover
	p   int

	mIndexEntries *metrics.Counter // rrr/index-entries, nil without metrics
}

func (s *localSamples) Extend(count int64) (int64, error) {
	s.st.Sample(s.col, int(count))
	s.st.Release()
	return int64(s.col.Count()), nil
}

func (s *localSamples) Cover(k int) (int64, error) {
	s.setIndex(rrr.ExtendIndex(s.idx, s.col, s.p))
	_, cov := selectPlain(NewFlatCoverage(s.col, s.idx, nil, s.p), s.idx, k)
	return cov, nil
}

// setIndex installs next, an extension of the current index, and counts
// the entries the extension wrote.
func (s *localSamples) setIndex(next *rrr.Index) {
	if s.mIndexEntries != nil {
		var before int64
		if s.idx != nil {
			before = s.idx.Entries()
		}
		s.mIndexEntries.Add(next.Entries() - before)
	}
	s.idx = next
}

// naiveSamples are the baseline's samples in its bidirectional store,
// selected by its own loop.
type naiveSamples struct {
	st    *BatchSampler
	store *rrr.NaiveStore
}

func (s naiveSamples) Extend(count int64) (int64, error) {
	s.st.sampleNaive(s.store, int(count))
	return int64(s.store.Count()), nil
}

func (s naiveSamples) Cover(k int) (int64, error) {
	_, cov := SelectSeedsNaive(s.store, k)
	return cov, nil
}

// Transcode re-encodes col into the byte-coded store: under the frequency
// relabeling (DESIGN.md §13) of col's own incidence for StoreCoded, the
// identity labeling otherwise. It is the one place a flat arena is
// transcoded: DrawCoded, dist.Run, the shard cut and dynamic publication
// call it. The index needs no transcode: it lives in
// original-id space under any labeling (DESIGN.md §13.5).
func Transcode(col *rrr.Collection, store StoreKind, p int) *rrr.CodedCollection {
	var relab *rrr.Relabeling
	if store == StoreCoded {
		relab = rrr.NewRelabeling(rrr.IncidenceOf(col, p))
	}
	return rrr.FromCollection(col, relab)
}
