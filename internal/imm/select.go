package imm

import (
	"influmax/internal/graph"
	"influmax/internal/par"
	"influmax/internal/rrr"
)

// SelectSeeds runs the multithreaded greedy max-coverage of Algorithm 4
// over the collection with p workers and returns the k seeds in selection
// order together with the number of samples they cover.
//
// It builds the inverted incidence index of the collection and runs the
// indexed selection, which purges covered samples by direct lookup instead
// of the paper's per-seed scan over all samples; the output is byte-
// identical to SelectSeedsScan (the scan path is kept for exactly that
// regression check). Callers that already hold an Index — or that want the
// build timed separately, as Run does — use SelectSeedsIndexed directly.
func SelectSeeds(col *rrr.Collection, k, p int) ([]graph.Vertex, int64) {
	return SelectSeedsIndexed(col, rrr.BuildIndex(col, p), k, p)
}

// SelectSeedsIndexed is greedy max-coverage with index-driven purging (the
// engine over a FlatCoverage): the interval-owned counters, the argmax's
// order and the padding-seed behaviour of Algorithm 4 are unchanged, but a
// chosen seed's uncovered samples come straight from idx.SamplesOf,
// cutting the per-iteration cost from O(|R|) sample visits to O(degree of
// the seed). idx must have been built from col (or an identical collection).
func SelectSeedsIndexed(col *rrr.Collection, idx *rrr.Index, k, p int) ([]graph.Vertex, int64) {
	// Local backends fail only on an audience filter without roots.
	res, _ := Greedy(NewFlatCoverage(col, idx, nil, p), col.NumVertices(), Query{K: k}, nil)
	return res.Seeds, res.Covered
}

// SelectSeedsSketch is SelectSeedsIndexed over a resident byte-coded sketch
// (the engine over a CodedCoverage): byte-identical seeds for the same
// samples at any k and worker count, whatever the store's labeling.
func SelectSeedsSketch(col *rrr.CodedCollection, idx *rrr.Index, k, p int) ([]graph.Vertex, int64) {
	// Local backends fail only on an audience filter without roots.
	res, _ := Greedy(NewCodedCoverage(col, idx, nil, p), col.NumVertices(), Query{K: k}, nil)
	return res.Seeds, res.Covered
}

// selectPlain is the plain top-k the pipelines run — Estimate's
// re-selects and the final selection — on the cheaper backend for idx
// (PreferRecount): the recounting IndexCoverage while samples are small
// next to n, be otherwise. Both select the same seeds; SelectSeedsIndexed
// and SelectSeedsSketch stay on their decrementing backends, as the
// references.
func selectPlain(be Coverage[int32], idx *rrr.Index, k int) ([]graph.Vertex, int64) {
	if PreferRecount(idx) {
		be = NewIndexCoverage(idx)
	}
	res, _ := Greedy(be, idx.NumVertices(), Query{K: k}, nil)
	return res.Seeds, res.Covered
}

// selectMatrix is the plain top-k over a dense draw's bit matrix, on
// its recounting backend: Estimate's re-selects and Run's final
// selection once the draw went dense.
func selectMatrix(m *rrr.Matrix, p, k int) ([]graph.Vertex, int64) {
	res, _ := Greedy(newMatrixCoverage(m, p), m.NumVertices(), Query{K: k}, nil)
	return res.Seeds, res.Covered
}

// SelectSeedsScan is the paper's Algorithm 4 verbatim: every purge
// re-scans the whole collection for samples containing the chosen seed
// (worker 0 records the matches — "if i=0 then R <- R\{Rj}"). Kept as the
// reference the indexed path must match byte-for-byte, and as the old side
// of BenchmarkSelectSeeds.
func SelectSeedsScan(col *rrr.Collection, k, p int) ([]graph.Vertex, int64) {
	n := col.NumVertices()
	if n == 0 {
		return nil, 0
	}
	p = clampWorkers(p, n)
	counter := make([]int32, n)
	covered := rrr.NewBitset(col.Count())

	par.Run(p, func(rank int) {
		vl, vh := par.Interval(n, p, rank)
		col.CountRange(counter, nil, graph.Vertex(vl), graph.Vertex(vh))
	})

	seeds := make([]graph.Vertex, 0, k)
	chosen := make([]bool, n)
	var coveredCount int64

	bests := make([]int64, p)
	args := make([]int, p)
	var matched []int32
	for len(seeds) < k {
		par.Run(p, func(rank int) {
			vl, vh := par.Interval(n, p, rank)
			best, arg := int64(-1), -1
			for v := vl; v < vh; v++ {
				if chosen[v] {
					continue
				}
				if c := int64(counter[v]); c > best {
					best, arg = c, v
				}
			}
			bests[rank], args[rank] = best, arg
		})
		_, arg := par.ReduceMax(bests, args)
		if arg < 0 {
			break
		}
		v := graph.Vertex(arg)
		gain := int64(counter[v])
		seeds = append(seeds, v)
		chosen[arg] = true
		coveredCount += gain
		if gain == 0 {
			continue
		}
		// Purge the samples containing v: every worker decrements the
		// counters of its own vertex interval for each matching sample;
		// worker 0 additionally records the matches, which are marked
		// covered after the barrier.
		matched = matched[:0]
		par.Run(p, func(rank int) {
			vl, vh := par.Interval(n, p, rank)
			for j := 0; j < col.Count(); j++ {
				if covered.Get(j) || !col.Contains(j, v) {
					continue
				}
				for _, u := range col.RangeOf(j, graph.Vertex(vl), graph.Vertex(vh)) {
					counter[u]--
				}
				if rank == 0 {
					matched = append(matched, int32(j))
				}
			}
		})
		for _, j := range matched {
			covered.Set(int(j))
		}
	}
	return seeds, coveredCount
}

// SelectSeedsNaive is the baseline's seed selection: it exploits the
// bidirectional hypergraph (vertex -> samples incidence) to purge covered
// samples by direct lookup, the strategy of the reference implementation.
// Sequential, as the baseline is.
func SelectSeedsNaive(store *rrr.NaiveStore, k int) ([]graph.Vertex, int64) {
	n := store.NumVertices()
	deg := make([]int64, n)
	for v := 0; v < n; v++ {
		deg[v] = int64(len(store.SamplesOf(graph.Vertex(v))))
	}
	covered := make([]bool, store.Count())
	chosen := make([]bool, n)
	seeds := make([]graph.Vertex, 0, k)
	var coveredCount int64
	for len(seeds) < k {
		best, arg := int64(-1), -1
		for v := 0; v < n; v++ {
			if !chosen[v] && deg[v] > best {
				best, arg = deg[v], v
			}
		}
		if arg < 0 {
			break
		}
		v := graph.Vertex(arg)
		seeds = append(seeds, v)
		chosen[arg] = true
		coveredCount += deg[v]
		for _, j := range store.SamplesOf(v) {
			if covered[j] {
				continue
			}
			covered[j] = true
			for _, u := range store.Sample(int(j)) {
				deg[u]--
			}
		}
	}
	return seeds, coveredCount
}
