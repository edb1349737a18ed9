package imm

import (
	"reflect"
	"slices"
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/gen"
	"influmax/internal/graph"
	"influmax/internal/metrics"
	"influmax/internal/rng"
	"influmax/internal/rrr"
	"influmax/internal/trace"
)

// The bit matrix of dense draws (DESIGN.md §13.6) against the flat arena:
// the kernel's words must hold exactly the samples the list drain emits,
// and a draw that switches to the matrix must reach the theta, lower
// bound, sample count and instrument readings of one that stays flat.

// denseGraph is solve-ic's regime at test size: a com-DBLP analog under
// uniform IC weights, whose samples span a large share of n.
func denseGraph(t testing.TB) *graph.Graph {
	t.Helper()
	d, err := gen.ByName("com-DBLP")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Generate(0.01, 1)
	g.AssignUniform(2)
	return g
}

// estimateOn runs Estimate over a fresh draw of g, allowed to switch to
// the matrix or not, and returns theta, lb, the samples and the metrics.
func estimateOn(t *testing.T, g *graph.Graph, opt Options, densify bool) (int64, float64, *localSamples, *metrics.Snapshot) {
	t.Helper()
	opt.Metrics = metrics.NewRegistry()
	opt = opt.withDefaults()
	s := &localSamples{st: NewBatchSampler(g, opt), col: rrr.NewCollection(g.NumVertices()), p: opt.Workers, densify: densify}
	theta, lb, err := Estimate(s, NewAnalysis(g.NumVertices(), opt.K, opt.Epsilon, opt.L), opt.K, new(trace.Times))
	if err != nil {
		t.Fatal(err)
	}
	if densify != (s.mat != nil) {
		t.Fatalf("densify %v: matrix %v", densify, s.mat != nil)
	}
	return theta, lb, s, opt.Metrics.Snapshot()
}

// TestEstimateMatrixMatchesFlat: on a dense fixture, under IC and LT and
// at one and four workers, Estimate over samples that move to the matrix
// after the first round returns the theta and lower bound of Estimate
// over the flat arena, holds the same samples, and records the same
// rrr/samples, rrr/entries and rrr/size readings.
func TestEstimateMatrixMatchesFlat(t *testing.T) {
	ic := denseGraph(t)
	lt := testGraph(11, 200, 2400)
	lt.NormalizeLT()
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		model diffuse.Model
	}{{"IC", ic, diffuse.IC}, {"LT", lt, diffuse.LT}} {
		for _, p := range []int{1, 4} {
			opt := Options{K: 20, Epsilon: 0.5, Model: c.model, Workers: p, Seed: 3}
			theta, lb, flat, fm := estimateOn(t, c.g, opt, false)
			mtheta, mlb, dense, mm := estimateOn(t, c.g, opt, true)
			if mtheta != theta || mlb != lb {
				t.Fatalf("%s p %d: matrix theta %d lb %v, flat theta %d lb %v", c.name, p, mtheta, mlb, theta, lb)
			}
			col := dense.mat.Collection(p)
			if col.Count() != flat.col.Count() {
				t.Fatalf("%s p %d: matrix holds %d samples, flat %d", c.name, p, col.Count(), flat.col.Count())
			}
			for j := range col.Count() {
				if !slices.Equal(col.Sample(j), flat.col.Sample(j)) {
					t.Fatalf("%s p %d: sample %d differs", c.name, p, j)
				}
			}
			for _, name := range []string{"rrr/samples", "rrr/entries"} {
				if mm.Counters[name] != fm.Counters[name] {
					t.Fatalf("%s p %d: %s = %d on the matrix, %d flat", c.name, p, name, mm.Counters[name], fm.Counters[name])
				}
			}
			if !reflect.DeepEqual(mm.Histograms["rrr/size"], fm.Histograms["rrr/size"]) {
				t.Fatalf("%s p %d: rrr/size histograms differ", c.name, p)
			}
		}
	}
}

// TestRunStoreByDensity: the density rule picks the matrix on the dense
// fixture, whose Run then reports StoreMatrix with the matrix's bytes and
// no index, and keeps the flat arena on a served-like weighted-cascade
// graph. Either way the seeds, theta and coverage are RunCollect's, which
// selects over the flat arena.
func TestRunStoreByDensity(t *testing.T) {
	served, err := gen.ByName("com-YouTube")
	if err != nil {
		t.Fatal(err)
	}
	wc := served.Generate(0.01, 1)
	wc.AssignWeightedCascade()
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		dense bool
	}{{"dense", denseGraph(t), true}, {"served", wc, false}} {
		opt := Options{K: 20, Epsilon: 0.5, Model: diffuse.IC, Workers: 2, Seed: 1}
		res, err := Run(c.g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if c.dense != (res.Store == StoreMatrix) {
			t.Fatalf("%s: store %v", c.name, res.Store)
		}
		if got := res.Report(opt).Store; c.dense && got != "matrix" {
			t.Fatalf("%s: report names store %q", c.name, got)
		}
		want, col, _, err := RunCollect(c.g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Seeds, want.Seeds) || res.Theta != want.Theta ||
			res.CoverageFraction != want.CoverageFraction || res.FlatStoreBytes != col.Bytes() {
			t.Fatalf("%s: Run %v theta %d coverage %v flat %d B, RunCollect %v theta %d coverage %v flat %d B",
				c.name, res.Seeds, res.Theta, res.CoverageFraction, res.FlatStoreBytes,
				want.Seeds, want.Theta, want.CoverageFraction, col.Bytes())
		}
		if c.dense && (res.IndexBytes != 0 || res.StoreBytes != rrr.MatrixOf(col, 2).Bytes()) {
			t.Fatalf("%s: store %d B, index %d B", c.name, res.StoreBytes, res.IndexBytes)
		}
	}
	if _, err := ParseStoreKind("matrix"); err == nil {
		t.Fatal(`ParseStoreKind accepts "matrix"`)
	}
}

// FuzzMatrixMatchesFlat draws samples into a bit matrix — a flat first
// round of random length converted, then the rest as kernel words in
// random round splits, so rounds start mid-block — and holds it against
// BatchSampler.Sample and BuildIndex over the same ids: sample by sample
// and SamplesOf by vertex, under IC and LT, at one to four workers.
func FuzzMatrixMatchesFlat(f *testing.F) {
	f.Add(uint64(1), false, uint16(200), uint16(70), uint8(3), uint8(2))
	f.Add(uint64(7), true, uint16(129), uint16(0), uint8(1), uint8(4))
	f.Add(uint64(3), false, uint16(64), uint16(64), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, lt bool, total, first uint16, rounds, workers uint8) {
		g := testGraph(seed%5+1, 60, 400)
		model := diffuse.IC
		if lt {
			g.NormalizeLT()
			model = diffuse.LT
		}
		n := g.NumVertices()
		count := 1 + int(total)%300
		head := int(first) % (count + 1)
		opt := Options{K: 1, Epsilon: 0.5, Model: model, Workers: 1 + int(workers)%4, Seed: seed}.withDefaults()

		ref := rrr.NewCollection(n)
		NewBatchSampler(g, opt).Sample(ref, count)
		idx := rrr.BuildIndex(ref, 1)

		st := NewBatchSampler(g, opt)
		col := rrr.NewCollection(n)
		st.Sample(col, head)
		m := rrr.MatrixOf(col, opt.Workers)
		r := rng.New(rng.NewLCG(seed))
		for left := count - head; left > 0; {
			step := left
			if rounds > 0 {
				rounds--
				step = 1 + r.Intn(left)
			}
			st.sampleMatrix(m, step)
			left -= step
		}

		got := m.Collection(opt.Workers)
		if got.Count() != count || m.TotalSize() != ref.TotalSize() {
			t.Fatalf("matrix holds %d samples, %d entries; want %d, %d", got.Count(), m.TotalSize(), count, ref.TotalSize())
		}
		for j := range count {
			if !slices.Equal(got.Sample(j), ref.Sample(j)) {
				t.Fatalf("first %d: sample %d = %v, want %v", head, j, got.Sample(j), ref.Sample(j))
			}
		}
		midx := m.Index(opt.Workers)
		for v := range graph.Vertex(n) {
			if !slices.Equal(midx.SamplesOf(v), idx.SamplesOf(v)) {
				t.Fatalf("first %d: SamplesOf(%d) = %v, want %v", head, v, midx.SamplesOf(v), idx.SamplesOf(v))
			}
		}
	})
}
