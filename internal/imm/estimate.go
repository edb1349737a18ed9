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
		if total, err = s.Extend(tm.thetaAt(x) - total); err == nil {
			cov, err = s.Cover(k)
		}
		if err != nil {
			phases.Add(trace.Estimation, time.Since(start))
			return 0, 0, err
		}
		if nF := tm.N() * float64(cov) / float64(total); nF >= tm.thresholdAt(x) {
			lb = tm.LowerBound(nF)
			break
		}
	}
	theta = tm.finalTheta(lb)
	phases.Add(trace.Estimation, time.Since(start))

	start = time.Now()
	_, err = s.Extend(theta - total)
	phases.Add(trace.Sampling, time.Since(start))
	return theta, lb, err
}

// localSamples are one process's samples: in a flat arena with the
// incidence index of every sample up to the last Cover, or, once the draw
// turned out dense, in a bit matrix that is store and index at once
// (DESIGN.md §13.6). On the flat arena each Cover extends the index over
// the samples drawn since, so a draw indexes each sample once however
// many rounds re-select over it.
type localSamples struct {
	st  *BatchSampler
	col *rrr.Collection // nil once mat holds the samples
	mat *rrr.Matrix     // nil until the density rule picks the matrix
	idx *rrr.Index      // nil until the first flat Cover
	p   int

	// densify arms the density rule for the next Extend: draw sets it on
	// the fused engine, and the first round clears it.
	densify bool

	mIndexEntries *metrics.Counter // rrr/index-entries, nil without metrics
}

// Extend draws into the store the samples are in. The first round is
// drawn into the flat arena; if that arena is then no smaller than the
// matrix of the same samples would be, the samples move to the matrix
// and every later round is emitted as the kernel's words.
func (s *localSamples) Extend(count int64) (int64, error) {
	if s.mat != nil {
		s.st.sampleMatrix(s.mat, int(count))
		return int64(s.mat.Count()), nil
	}
	s.st.Sample(s.col, int(count))
	s.st.Release()
	if s.densify {
		s.densify = false
		if matrixPays(s.col) {
			s.mat, s.col = rrr.MatrixOf(s.col, s.p), nil
			return int64(s.mat.Count()), nil
		}
	}
	return int64(s.col.Count()), nil
}

// matrixPays is the density rule: the bit matrix of col's samples is no
// larger than col's flat arena, ⌈count/64⌉·n·8 <= 4·entries + 8·(count+1)
// in whole bytes, so it holds once a mean sample has about n/32 members.
func matrixPays(col *rrr.Collection) bool {
	return rrr.MatrixBytes(col.NumVertices(), col.Count()) <= col.Bytes()
}

func (s *localSamples) Cover(k int) (int64, error) {
	if s.mat != nil {
		_, cov := selectMatrix(s.mat, s.p, k)
		return cov, nil
	}
	s.setIndex(rrr.ExtendIndex(s.idx, s.col, s.p))
	_, cov := selectPlain(NewFlatCoverage(s.col, s.idx, nil, s.p), s.idx, k)
	return cov, nil
}

// count returns how many samples have been drawn.
func (s *localSamples) count() int {
	if s.mat != nil {
		return s.mat.Count()
	}
	return s.col.Count()
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

// flat returns the samples in a flat arena with their full index: a
// matrix is materialised once (the arena accounted to Other, the index
// to IndexBuild) and dropped; an arena gets its index extended over the
// final draw (IndexBuild; free when the search already overshot theta).
func (s *localSamples) flat(res *Result) (*rrr.Collection, *rrr.Index) {
	if s.mat != nil {
		res.Phases.Measure(trace.Other, func() { s.col = s.mat.Collection(s.p) })
		res.Phases.Measure(trace.IndexBuild, func() { s.setIndex(s.mat.Index(s.p)) })
		s.mat = nil
		return s.col, s.idx
	}
	res.Phases.Measure(trace.IndexBuild, func() { s.setIndex(rrr.ExtendIndex(s.idx, s.col, s.p)) })
	return s.col, s.idx
}

// coded returns the samples transcoded into the byte-coded store under
// store's labeling (accounted to Other) with their full index. The flat
// arena is dropped before the index is extended from the coded store, so
// the arena and both generations of the index are never resident
// together; a matrix's index comes off the matrix, which is then dropped.
func (s *localSamples) coded(res *Result, store StoreKind) (*rrr.CodedCollection, *rrr.Index) {
	var coded *rrr.CodedCollection
	if s.mat != nil {
		res.Phases.Measure(trace.Other, func() { coded = Transcode(s.mat.Collection(s.p), store, s.p) })
		res.Phases.Measure(trace.IndexBuild, func() { s.setIndex(s.mat.Index(s.p)) })
		s.mat = nil
		return coded, s.idx
	}
	res.Phases.Measure(trace.Other, func() { coded = Transcode(s.col, store, s.p) })
	s.col = nil
	res.Phases.Measure(trace.IndexBuild, func() { s.setIndex(rrr.ExtendIndexCoded(s.idx, coded, s.p)) })
	return coded, s.idx
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

// Transcode re-encodes col into the byte-coded store with p workers
// (rrr.FromCollectionParallel, byte-identical at any p): under the
// frequency relabeling (DESIGN.md §13) of col's own incidence for
// StoreCoded, the identity labeling otherwise. It is the one place a flat
// arena is transcoded: DrawCoded, the shard cut and dynamic publication
// call it. The index needs no transcode: it lives in
// original-id space under any labeling (DESIGN.md §13.5).
func Transcode(col *rrr.Collection, store StoreKind, p int) *rrr.CodedCollection {
	var relab *rrr.Relabeling
	if store == StoreCoded {
		relab = rrr.NewRelabeling(rrr.IncidenceOf(col, p))
	}
	return rrr.FromCollectionParallel(col, relab, p)
}
