// Benchmarks regenerating the paper's evaluation artifacts: one benchmark
// per table and figure, plus ablations of the design choices called out in
// DESIGN.md. Scale via INFLUMAX_BENCH_SCALE (default 0.002; the paper's
// figures correspond to 1.0, which needs a cluster-class machine and
// hours).
//
//	go test -bench=. -benchmem
package influmax

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"influmax/internal/diffuse"
	"influmax/internal/dist"
	"influmax/internal/gen"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/mpi"
	"influmax/internal/par"
	"influmax/internal/rng"
	"influmax/internal/rrr"
)

// benchScale reads the dataset scale factor from the environment.
func benchScale() float64 {
	if s := os.Getenv("INFLUMAX_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 && v <= 1 {
			return v
		}
	}
	return 0.002
}

var (
	benchGraphsMu sync.Mutex
	benchGraphs   = map[string]*graph.Graph{}
)

// benchGraph returns a cached IC-weighted analog of the named dataset.
func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	key := fmt.Sprintf("%s@%g", name, benchScale())
	benchGraphsMu.Lock()
	defer benchGraphsMu.Unlock()
	if g, ok := benchGraphs[key]; ok {
		return g
	}
	d, err := gen.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Generate(benchScale(), 1)
	g.AssignUniform(0x5eed)
	benchGraphs[key] = g
	return g
}

// benchGraphLT returns a cached LT-normalized analog.
func benchGraphLT(b *testing.B, name string) *graph.Graph {
	b.Helper()
	key := fmt.Sprintf("%s@%g/LT", name, benchScale())
	benchGraphsMu.Lock()
	if g, ok := benchGraphs[key]; ok {
		benchGraphsMu.Unlock()
		return g
	}
	benchGraphsMu.Unlock()
	d, err := gen.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Generate(benchScale(), 1)
	g.AssignUniform(0x5eed)
	g.NormalizeLT()
	benchGraphsMu.Lock()
	benchGraphs[key] = g
	benchGraphsMu.Unlock()
	return g
}

func clampK(g *graph.Graph, k int) int {
	if k >= g.NumVertices() {
		return g.NumVertices() / 4
	}
	return k
}

// --- Table 2: serial IMM (hypergraph baseline) vs IMMopt (compact) ---

func BenchmarkTable2SerialIMMBaseline(b *testing.B) {
	for _, name := range []string{"cit-HepTh", "soc-Epinions1", "com-Amazon", "com-DBLP"} {
		b.Run(name, func(b *testing.B) {
			g := benchGraph(b, name)
			opt := imm.Options{K: clampK(g, 50), Epsilon: 0.5, Model: diffuse.IC, Workers: 1, Seed: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := imm.RunBaseline(g, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.StoreBytes)/(1<<20), "store-MB")
			}
		})
	}
}

func BenchmarkTable2SerialIMMOpt(b *testing.B) {
	for _, name := range []string{"cit-HepTh", "soc-Epinions1", "com-Amazon", "com-DBLP"} {
		b.Run(name, func(b *testing.B) {
			g := benchGraph(b, name)
			opt := imm.Options{K: clampK(g, 50), Epsilon: 0.5, Model: diffuse.IC, Workers: 1, Seed: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := imm.Run(g, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.StoreBytes)/(1<<20), "store-MB")
			}
		})
	}
}

// --- Figure 1: quality vs k at the two accuracies ---

func BenchmarkFig1Quality(b *testing.B) {
	g := benchGraph(b, "cit-HepTh")
	for _, eps := range []float64{0.5, 0.13} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			k := clampK(g, 100)
			for i := 0; i < b.N; i++ {
				res, err := imm.Run(g, imm.Options{K: k, Epsilon: eps, Model: diffuse.IC, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				spread, _ := diffuse.EstimateSpread(g, diffuse.IC, res.Seeds, 2000, 0, 7)
				b.ReportMetric(spread, "activated")
			}
		})
	}
}

// --- Figure 2: theta estimation across eps ---

func BenchmarkFig2Theta(b *testing.B) {
	g := benchGraph(b, "cit-HepTh")
	for _, eps := range []float64{0.6, 0.5, 0.4, 0.3, 0.2} {
		b.Run(fmt.Sprintf("eps=%.1f", eps), func(b *testing.B) {
			k := clampK(g, 50)
			for i := 0; i < b.N; i++ {
				res, err := imm.Run(g, imm.Options{K: k, Epsilon: eps, Model: diffuse.IC, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Theta), "theta")
			}
		})
	}
}

// --- Figure 3: eps sweep (k=50, IC) ---

func BenchmarkFig3EpsilonSweep(b *testing.B) {
	g := benchGraph(b, "soc-Epinions1")
	for _, eps := range []float64{0.50, 0.40, 0.30, 0.20} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			k := clampK(g, 50)
			for i := 0; i < b.N; i++ {
				if _, err := imm.Run(g, imm.Options{K: k, Epsilon: eps, Model: diffuse.IC, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 4: k sweep (eps=0.5, IC) ---

func BenchmarkFig4KSweep(b *testing.B) {
	g := benchGraph(b, "soc-Epinions1")
	for _, k := range []int{10, 25, 50, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			kk := clampK(g, k)
			for i := 0; i < b.N; i++ {
				if _, err := imm.Run(g, imm.Options{K: kk, Epsilon: 0.5, Model: diffuse.IC, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figures 5 and 6: multithreaded strong scaling ---

func benchScaling(b *testing.B, model diffuse.Model) {
	var g *graph.Graph
	if model == diffuse.LT {
		g = benchGraphLT(b, "soc-Epinions1")
	} else {
		g = benchGraph(b, "soc-Epinions1")
	}
	for p := 1; p <= 16; p *= 2 {
		b.Run(fmt.Sprintf("threads=%d", p), func(b *testing.B) {
			k := clampK(g, 100)
			for i := 0; i < b.N; i++ {
				if _, err := imm.Run(g, imm.Options{K: k, Epsilon: 0.5, Model: model, Workers: p, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig5ScalingLT(b *testing.B) { benchScaling(b, diffuse.LT) }
func BenchmarkFig6ScalingIC(b *testing.B) { benchScaling(b, diffuse.IC) }

// --- Figures 7 and 8: distributed strong scaling ---

func benchDist(b *testing.B, name string, ranks []int, eps float64, k int) {
	g := benchGraph(b, name)
	for _, p := range ranks {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			kk := clampK(g, k)
			for i := 0; i < b.N; i++ {
				comms := mpi.NewLocalCluster(p)
				results := make([]*dist.Result, p)
				errs := make([]error, p)
				var wg sync.WaitGroup
				for r := 0; r < p; r++ {
					wg.Add(1)
					go func(rank int) {
						defer wg.Done()
						results[rank], errs[rank] = dist.Run(comms[rank], g, dist.Options{
							K: kk, Epsilon: eps, Model: diffuse.IC, Seed: 1, ThreadsPerRank: 1,
						})
					}(r)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkFig7DistPuma(b *testing.B) {
	benchDist(b, "com-YouTube", []int{2, 4, 8, 16}, 0.3, 50)
}

func BenchmarkFig8DistEdison(b *testing.B) {
	benchDist(b, "com-YouTube", []int{4, 8, 16, 32}, 0.3, 50)
}

// --- Table 3: the four implementations end to end ---

func BenchmarkTable3Pipeline(b *testing.B) {
	g := benchGraph(b, "soc-LiveJournal1")
	k := clampK(g, 100)
	b.Run("IMM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := imm.RunBaseline(g, imm.Options{K: k, Epsilon: 0.5, Model: diffuse.IC, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("IMMopt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := imm.Run(g, imm.Options{K: k, Epsilon: 0.5, Model: diffuse.IC, Workers: 1, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("IMMmt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := imm.Run(g, imm.Options{K: k, Epsilon: 0.5, Model: diffuse.IC, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("IMMdist", func(b *testing.B) {
		const p = 4
		k2 := clampK(g, 2*k)
		for i := 0; i < b.N; i++ {
			comms := mpi.NewLocalCluster(p)
			var wg sync.WaitGroup
			errs := make([]error, p)
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					_, errs[rank] = dist.Run(comms[rank], g, dist.Options{
						K: k2, Epsilon: 0.3, Model: diffuse.IC, Seed: 1, ThreadsPerRank: 2,
					})
				}(r)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- SelectSeeds: per-seed scan purge (the paper's Algorithm 4 verbatim)
// vs inverted-index purge, on the largest synthetic graph in the suite.
// The indexed side includes the index build, so the comparison is the full
// end-to-end selection cost either way. ---

func BenchmarkSelectSeeds(b *testing.B) {
	// Weighted-cascade weights (the paper's WC model): RRR sets stay small,
	// coverage saturates slowly, and selection cost is dominated by the
	// per-seed purge — the regime Algorithm 4 actually runs in. Weights are
	// assigned on a private analog so the shared benchGraph cache keeps its
	// uniform-IC weights for the other benchmarks.
	d, err := gen.ByName("soc-LiveJournal1")
	if err != nil {
		b.Fatal(err)
	}
	g := d.Generate(benchScale(), 1)
	g.AssignWeightedCascade()
	n := g.NumVertices()
	col := rrr.NewCollection(n)
	sampler := diffuse.NewSampler(g, diffuse.IC)
	r := rng.New(rng.NewLCG(3))
	var buf []graph.Vertex
	for i := 0; i < 200000; i++ {
		buf = sampler.GenerateRR(r, graph.Vertex(r.Intn(n)), buf[:0])
		col.Append(buf)
	}
	k := clampK(g, 100)
	const workers = 8
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			imm.SelectSeedsScan(col, k, workers)
		}
	})
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			imm.SelectSeeds(col, k, workers)
		}
	})
	b.Run("indexed-prebuilt", func(b *testing.B) {
		idx := rrr.BuildIndex(col, workers)
		b.ReportMetric(float64(idx.Bytes())/(1<<20), "index-MB")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			imm.SelectSeedsIndexed(col, idx, k, workers)
		}
	})
}

// --- Ablations (DESIGN.md section 4) ---

// Sorted samples + binary search vs linear membership scan.
func BenchmarkAblationSortedVsLinear(b *testing.B) {
	g := benchGraph(b, "cit-HepTh")
	col := rrr.NewCollection(g.NumVertices())
	sampler := diffuse.NewSampler(g, diffuse.IC)
	r := rng.New(rng.NewLCG(3))
	var arena []graph.Vertex
	offsets := []int64{0}
	for i := 0; i < 2000; i++ {
		arena = sampler.GenerateRR(r, graph.Vertex(r.Intn(g.NumVertices())), arena)
		offsets = append(offsets, int64(len(arena)))
	}
	col.AppendArena(arena, offsets)
	probe := make([]graph.Vertex, 256)
	for i := range probe {
		probe[i] = graph.Vertex(r.Intn(g.NumVertices()))
	}
	b.Run("binary-search", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			v := probe[i%len(probe)]
			for j := 0; j < col.Count(); j++ {
				if col.Contains(j, v) {
					hits++
				}
			}
		}
		_ = hits
	})
	b.Run("linear-scan", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			v := probe[i%len(probe)]
			for j := 0; j < col.Count(); j++ {
				for _, u := range col.Sample(j) {
					if u == v {
						hits++
						break
					}
				}
			}
		}
		_ = hits
	})
}

// Compact one-directional store vs bidirectional hypergraph: seed
// selection cost (the hypergraph buys cheaper selection with double the
// memory; Table 2 shows the end-to-end trade).
func BenchmarkAblationCompactVsHyper(b *testing.B) {
	g := benchGraph(b, "cit-HepTh")
	n := g.NumVertices()
	col := rrr.NewCollection(n)
	naive := rrr.NewNaiveStore(n)
	sampler := diffuse.NewSampler(g, diffuse.IC)
	r := rng.New(rng.NewLCG(3))
	var buf []graph.Vertex
	for i := 0; i < 2000; i++ {
		buf = sampler.GenerateRR(r, graph.Vertex(r.Intn(n)), buf[:0])
		col.Append(buf)
		naive.Append(buf)
	}
	b.Run("compact-select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			imm.SelectSeeds(col, 20, 1)
		}
	})
	b.Run("hyper-select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			imm.SelectSeedsNaive(naive, 20)
		}
	})
}

// RNG disciplines: raw generator throughput and the sampling hot loop.
func BenchmarkAblationRNG(b *testing.B) {
	g := benchGraph(b, "cit-HepTh")
	n := g.NumVertices()
	run := func(b *testing.B, mode imm.RNGMode) {
		for i := 0; i < b.N; i++ {
			if _, err := imm.Run(g, imm.Options{K: clampK(g, 25), Epsilon: 0.5, Model: diffuse.IC, Seed: 1, RNG: mode, Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("leap-frog-LCG", func(b *testing.B) { run(b, imm.LeapFrog) })
	b.Run("per-sample-splitmix", func(b *testing.B) { run(b, imm.PerSample) })
	b.Run("raw-reverse-bfs", func(b *testing.B) {
		sampler := diffuse.NewSampler(g, diffuse.IC)
		r := rng.New(rng.NewLCG(1))
		var buf []graph.Vertex
		for i := 0; i < b.N; i++ {
			buf = sampler.GenerateRR(r, graph.Vertex(r.Intn(n)), buf[:0])
		}
	})
}

// Range-partitioned counters (Algorithm 4's no-atomics design) vs a
// single shared atomic counter array.
func BenchmarkAblationCountersAtomicVsRange(b *testing.B) {
	g := benchGraph(b, "soc-Epinions1")
	n := g.NumVertices()
	col := rrr.NewCollection(n)
	sampler := diffuse.NewSampler(g, diffuse.IC)
	r := rng.New(rng.NewLCG(3))
	var arena []graph.Vertex
	offsets := []int64{0}
	for i := 0; i < 4000; i++ {
		arena = sampler.GenerateRR(r, graph.Vertex(r.Intn(n)), arena)
		offsets = append(offsets, int64(len(arena)))
	}
	col.AppendArena(arena, offsets)
	const workers = 8
	b.Run("range-owned", func(b *testing.B) {
		counter := make([]int32, n)
		for i := 0; i < b.N; i++ {
			clear(counter)
			countRangeOwned(col, counter, workers)
		}
	})
	b.Run("atomic", func(b *testing.B) {
		counter := make([]int32, n)
		for i := 0; i < b.N; i++ {
			clear(counter)
			countAtomic(col, counter, workers)
		}
	})
}

// countRangeOwned mirrors Algorithm 4's counting: each worker owns a
// contiguous vertex interval, so writes never conflict.
func countRangeOwned(col *rrr.Collection, counter []int32, workers int) {
	n := len(counter)
	par.Run(workers, func(rank int) {
		lo, hi := par.Interval(n, workers, rank)
		col.CountRange(counter, nil, graph.Vertex(lo), graph.Vertex(hi))
	})
}

// countAtomic splits samples across workers instead, paying an atomic
// add per membership.
func countAtomic(col *rrr.Collection, counter []int32, workers int) {
	par.ForEach(col.Count(), workers, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			for _, u := range col.Sample(j) {
				atomic.AddInt32(&counter[u], 1)
			}
		}
	})
}

// Plain arena vs byte-coded RRR store: memory versus decode cost during
// counting (the extension of the paper's Section 3.1 memory optimization;
// wire format in DESIGN.md section 13).
func BenchmarkAblationCodedStore(b *testing.B) {
	g := benchGraph(b, "soc-Epinions1")
	n := g.NumVertices()
	plain := rrr.NewCollection(n)
	sampler := diffuse.NewSampler(g, diffuse.IC)
	r := rng.New(rng.NewLCG(3))
	var buf []graph.Vertex
	for i := 0; i < 3000; i++ {
		buf = sampler.GenerateRR(r, graph.Vertex(r.Intn(n)), buf[:0])
		plain.Append(buf)
	}
	coded := rrr.FromCollection(plain, rrr.NewRelabeling(rrr.IncidenceOf(plain, 1)))
	b.Logf("store bytes: plain %d, coded %d (%.2fx)",
		plain.Bytes(), coded.Bytes(), float64(plain.Bytes())/float64(coded.Bytes()))
	counter := make([]int32, n)
	b.Run("plain-count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clear(counter)
			plain.CountRange(counter, nil, 0, graph.Vertex(n))
		}
	})
	b.Run("coded-count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clear(counter)
			coded.CountAll(counter, nil)
		}
	})
}

// BenchmarkStoreFootprintGate is the CI-enforced acceptance gate of the
// byte-coded store (DESIGN.md section 13): on the soc-LiveJournal1 analog
// the frequency-relabeled coding must hold the same samples in at most 1/3
// of the flat arena's footprint, selection over the coded store must
// return byte-identical seeds, and its best-of-7 selection time must stay
// within 30% of SelectSeedsIndexed over the flat arena. Violations
// b.Fatalf, so a plain `go test -bench StoreFootprintGate` run fails
// loudly in CI instead of silently regressing the memory story.
func BenchmarkStoreFootprintGate(b *testing.B) {
	g := benchGraph(b, "soc-LiveJournal1")
	n := g.NumVertices()
	col := rrr.NewCollection(n)
	sampler := diffuse.NewSampler(g, diffuse.IC)
	r := rng.New(rng.NewLCG(3))
	var buf []graph.Vertex
	const samples = 6000
	for i := 0; i < samples; i++ {
		buf = sampler.GenerateRR(r, graph.Vertex(r.Intn(n)), buf[:0])
		col.Append(buf)
	}
	coded := rrr.FromCollection(col, rrr.NewRelabeling(rrr.IncidenceOf(col, 4)))

	ratio := float64(coded.FlatBytes()) / float64(coded.Bytes())
	b.Logf("store bytes: flat %d, coded %d (%.2fx; relabel table %d)",
		coded.FlatBytes(), coded.Bytes(), ratio, coded.Relabeling().Bytes())
	b.ReportMetric(ratio, "flat/coded-bytes")
	if ratio < 3.0 {
		b.Fatalf("footprint gate: coded store compresses %.2fx, need >= 3.0x", ratio)
	}

	const k, workers = 50, 4
	idx := rrr.BuildIndex(col, workers)
	cidx := rrr.BuildIndexCoded(coded, workers)
	wantSeeds, wantCov := imm.SelectSeedsIndexed(col, idx, k, workers)
	gotSeeds, gotCov := imm.SelectSeedsSketch(coded, cidx, k, workers)
	if !slices.Equal(gotSeeds, wantSeeds) || gotCov != wantCov {
		b.Fatalf("footprint gate: coded selection diverged from flat")
	}

	best := func(f func()) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < 7; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	flatBest := best(func() { imm.SelectSeedsIndexed(col, idx, k, workers) })
	codedBest := best(func() { imm.SelectSeedsSketch(coded, cidx, k, workers) })
	slowdown := float64(codedBest) / float64(flatBest)
	b.Logf("selection best-of-7: flat %v, coded %v (%.2fx)", flatBest, codedBest, slowdown)
	b.ReportMetric(slowdown, "coded/flat-select")
	if slowdown > 1.30 {
		b.Fatalf("footprint gate: coded selection %.2fx slower than flat, budget is 1.30x", slowdown)
	}

	// The timed loop re-runs the coded selection, so `-benchmem` style runs
	// still produce a conventional ns/op column for tracking.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imm.SelectSeedsSketch(coded, cidx, k, workers)
	}
}
