package imm

import (
	"slices"
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/metrics"
	"influmax/internal/rrr"
)

// scheduleModels are the four weighting/diffusion regimes the equivalence
// suite sweeps: uniform-IC, LT, the paper's weighted-cascade (WC,
// p(u,v) = 1/indeg(v) under IC), and LT over WC weights, where every
// in-list is uniform and the fused walk picks its edge in closed form.
var scheduleModels = []struct {
	name  string
	model diffuse.Model
	prep  func(g *graph.Graph, seed uint64)
}{
	{"IC", diffuse.IC, func(g *graph.Graph, seed uint64) { g.AssignUniform(seed ^ 0xbeef) }},
	{"LT", diffuse.LT, func(g *graph.Graph, seed uint64) { g.AssignUniform(seed ^ 0xbeef); g.NormalizeLT() }},
	{"WC", diffuse.IC, func(g *graph.Graph, seed uint64) { g.AssignWeightedCascade() }},
	{"LT-WC", diffuse.LT, func(g *graph.Graph, seed uint64) { g.AssignWeightedCascade(); g.NormalizeLT() }},
}

// scheduleGraph builds one of the suite's fixed-seed graphs with the given
// weighting regime applied.
func scheduleGraph(seed uint64, n, m int, prep func(*graph.Graph, uint64)) *graph.Graph {
	g := testGraph(seed, n, m)
	prep(g, seed)
	return g
}

// schedules are the two sampling-loop schedules of a PerSample run: the
// paper's static split (the unexported oracle) and the work-stealing
// default.
var schedules = []struct {
	name   string
	static bool
}{{"static", true}, {"dynamic", false}}

// sameCollection reports whether two collections are byte-identical:
// equal sample counts and, sample by sample, equal sorted vertex lists
// (offsets are determined by the lengths, so this is layout equality).
func sameCollection(a, b *rrr.Collection) bool {
	if a.Count() != b.Count() || a.TotalSize() != b.TotalSize() {
		return false
	}
	for i := 0; i < a.Count(); i++ {
		if !slices.Equal(a.Sample(i), b.Sample(i)) {
			return false
		}
	}
	return true
}

// TestDynamicMatchesStatic is the tentpole's determinism gate: in
// PerSample RNG mode the work-stealing schedule must produce a Collection
// byte-identical to the static schedule at workers=1 — for every graph,
// model, and worker count — and the downstream SelectSeedsIndexed output
// must therefore match too.
func TestDynamicMatchesStatic(t *testing.T) {
	graphs := []struct {
		seed uint64
		n, m int
	}{
		{11, 80, 600},
		{22, 150, 1300},
		{33, 300, 2500},
	}
	const count = 600
	const k = 10
	for _, gc := range graphs {
		for _, mc := range scheduleModels {
			g := scheduleGraph(gc.seed, gc.n, gc.m, mc.prep)

			ref := rrr.NewCollection(gc.n)
			NewBatchSampler(g, Options{
				Model: mc.model, Workers: 1, Seed: gc.seed, static: true,
			}).Sample(ref, count)
			refIdx := rrr.BuildIndex(ref, 1)
			refSeeds, refCov := SelectSeedsIndexed(ref, refIdx, k, 1)

			for _, w := range []int{1, 2, 4, 7} {
				col := rrr.NewCollection(gc.n)
				NewBatchSampler(g, Options{
					Model: mc.model, Workers: w, Seed: gc.seed,
				}).Sample(col, count)
				if !sameCollection(ref, col) {
					t.Fatalf("graph=%d model=%s workers=%d: dynamic collection != static workers=1",
						gc.seed, mc.name, w)
				}
				if bad := col.CheckInvariants(); bad != -1 {
					t.Fatalf("graph=%d model=%s workers=%d: invariants broken at sample %d",
						gc.seed, mc.name, w, bad)
				}
				seeds, cov := SelectSeedsIndexed(col, rrr.BuildIndex(col, w), k, w)
				if !slices.Equal(seeds, refSeeds) || cov != refCov {
					t.Fatalf("graph=%d model=%s workers=%d: seeds (%v, %d) != static (%v, %d)",
						gc.seed, mc.name, w, seeds, cov, refSeeds, refCov)
				}
			}
		}
	}
}

// TestRunSeedsScheduleIndependent runs the full Algorithm 1 pipeline under
// both schedules and several worker counts: Theta, the seed set, and the
// coverage must be identical (PerSample mode), so the schedule can never
// change a result.
func TestRunSeedsScheduleIndependent(t *testing.T) {
	g := testGraph(77, 140, 1100)
	ref, err := Run(g, Options{K: 8, Epsilon: 0.5, Model: diffuse.IC, Workers: 1, Seed: 3, static: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range schedules {
		for _, w := range []int{1, 2, 4, 7} {
			res, err := Run(g, Options{K: 8, Epsilon: 0.5, Model: diffuse.IC, Workers: w, Seed: 3, static: sched.static})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Seeds, ref.Seeds) || res.Theta != ref.Theta ||
				res.CoverageFraction != ref.CoverageFraction {
				t.Fatalf("schedule=%s workers=%d: (%v, theta=%d) != reference (%v, theta=%d)",
					sched.name, w, res.Seeds, res.Theta, ref.Seeds, ref.Theta)
			}
		}
	}
}

// TestScheduleMetricsDeterminism is the determinism audit for the
// instrumentation: rrr/samples, rrr/entries, and the rrr/size histogram
// must be identical across schedules and worker counts — they describe
// the samples, which PerSample mode pins. Per-worker work may differ (the
// whole point of stealing); only its sum is schedule-invariant.
func TestScheduleMetricsDeterminism(t *testing.T) {
	g := testGraph(55, 120, 1000)
	type audit struct {
		samples, entries int64
		sizeCount        int64
		sizeSum          int64
		workSum          int64
		balance          int64
	}
	var ref *audit
	for _, sched := range schedules {
		for _, w := range []int{1, 2, 4, 7} {
			reg := metrics.NewRegistry()
			res, err := Run(g, Options{K: 6, Epsilon: 0.5, Model: diffuse.IC, Workers: w, Seed: 9, static: sched.static, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			var workSum int64
			for _, wk := range res.WorkerWork {
				workSum += wk
			}
			got := &audit{
				samples:   reg.Counter("rrr/samples").Value(),
				entries:   reg.Counter("rrr/entries").Value(),
				sizeCount: reg.Histogram("rrr/size").Count(),
				sizeSum:   reg.Histogram("rrr/size").Sum(),
				workSum:   workSum,
				balance:   reg.Gauge("rrr/balance").Value(),
			}
			if got.samples != int64(res.SamplesGenerated) {
				t.Fatalf("schedule=%s workers=%d: rrr/samples %d != generated %d",
					sched.name, w, got.samples, res.SamplesGenerated)
			}
			if got.entries != got.sizeSum {
				t.Fatalf("schedule=%s workers=%d: rrr/entries %d != histogram sum %d",
					sched.name, w, got.entries, got.sizeSum)
			}
			if got.workSum != got.entries {
				t.Fatalf("schedule=%s workers=%d: sum(workerWork) %d != rrr/entries %d",
					sched.name, w, got.workSum, got.entries)
			}
			if got.balance < 1 || got.balance > 1000 {
				t.Fatalf("schedule=%s workers=%d: rrr/balance gauge %d out of (0, 1000]",
					sched.name, w, got.balance)
			}
			// The balance gauge is the only schedule/worker-dependent field;
			// blank it before the cross-configuration comparison.
			got.balance = 0
			if ref == nil {
				ref = got
			} else if *got != *ref {
				t.Fatalf("schedule=%s workers=%d: audit %+v != reference %+v", sched.name, w, got, ref)
			}
		}
	}
}

// TestSchedulerCountersReported pins the scheduler telemetry plumbing: a
// dynamic multi-worker run must report chunks (and, via the registry, the
// par/chunks counter); par/steals must stay zero under static.
func TestSchedulerCountersReported(t *testing.T) {
	g := testGraph(66, 120, 1000)
	reg := metrics.NewRegistry()
	col := rrr.NewCollection(120)
	bs := NewBatchSampler(g, Options{Model: diffuse.IC, Workers: 4, Seed: 4, Metrics: reg})
	bs.Sample(col, 500)
	if bs.chunks < 4 {
		t.Fatalf("dynamic run claimed %d chunks, want >= workers", bs.chunks)
	}
	if got := reg.Counter("par/chunks").Value(); got != bs.chunks {
		t.Fatalf("par/chunks counter %d != chunks %d", got, bs.chunks)
	}
	if got := reg.Counter("par/steals").Value(); got != bs.steals {
		t.Fatalf("par/steals counter %d != steals %d", got, bs.steals)
	}

	reg2 := metrics.NewRegistry()
	col2 := rrr.NewCollection(120)
	bs2 := NewBatchSampler(g, Options{Model: diffuse.IC, Workers: 4, Seed: 4, static: true, Metrics: reg2})
	bs2.Sample(col2, 500)
	if got := reg2.Counter("par/steals").Value(); got != 0 || bs2.steals != 0 {
		t.Fatalf("static run recorded %d steals, want 0", got)
	}
	if got := reg2.Counter("par/chunks").Value(); got != 4 {
		t.Fatalf("static run recorded %d chunks, want 4 (one per worker)", got)
	}
}

// TestLeapFrogForcesStatic: worker-pinned streams make stealing unsound,
// so a LeapFrog BatchSampler must always run the static split — no steals —
// and reproduce the scalar-static LeapFrog layout exactly.
func TestLeapFrogForcesStatic(t *testing.T) {
	g := testGraph(88, 100, 800)
	const count = 400
	for _, w := range []int{1, 4} {
		ref := rrr.NewCollection(100)
		NewBatchSampler(g, Options{
			Model: diffuse.IC, Workers: w, Seed: 6, RNG: LeapFrog, scalar: true, static: true,
		}).Sample(ref, count)

		col := rrr.NewCollection(100)
		bs := NewBatchSampler(g, Options{Model: diffuse.IC, Workers: w, Seed: 6, RNG: LeapFrog})
		bs.Sample(col, count)
		if bs.steals != 0 {
			t.Fatalf("workers=%d: LeapFrog run stole %d times; pinned streams must force static", w, bs.steals)
		}
		if !sameCollection(ref, col) {
			t.Fatalf("workers=%d: LeapFrog collection != scalar-static LeapFrog collection", w)
		}
	}
}

// TestSampleBatchSteadyStateAllocs is the allocation-churn regression: once
// the per-worker arenas, generators, and scratch are warm, a batch must
// allocate O(1) — nothing per sample. The bounds are far below one
// allocation per handful of samples, so any reintroduced per-sample churn
// (a fresh generator, a re-sliced BFS queue, a fresh arena) trips them.
func TestSampleBatchSteadyStateAllocs(t *testing.T) {
	g := testGraph(99, 200, 1600)
	const count = 2048
	for _, tc := range []struct {
		name    string
		workers int
		static  bool
		bound   float64
	}{
		// workers=1 runs inline: only the merge scratch and batch
		// bookkeeping may allocate.
		{"workers=1", 1, false, 8},
		// Multi-worker runs add goroutine spawns and the scheduler's range
		// array per batch — still O(workers), never O(samples).
		{"static-4", 4, true, 64},
		{"dynamic-4", 4, false, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs := NewBatchSampler(g, Options{Model: diffuse.IC, Workers: tc.workers, Seed: 12, static: tc.static})
			col := rrr.NewCollection(200)
			// Warm-up: grow arenas, scratch, and the collection to steady
			// state. Dynamic chunk boundaries vary run to run, so several
			// rounds let every worker's arena reach its high-water mark.
			for i := 0; i < 6; i++ {
				col.Truncate(0)
				bs.Sample(col, count)
			}
			avg := testing.AllocsPerRun(5, func() {
				col.Truncate(0)
				bs.Sample(col, count)
			})
			if avg > tc.bound {
				t.Fatalf("steady-state batch of %d samples allocates %.1f times, want <= %v",
					count, avg, tc.bound)
			}
		})
	}
}
