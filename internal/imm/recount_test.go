package imm

import (
	"fmt"
	"slices"
	"testing"

	"influmax/internal/diffuse"
	"influmax/internal/gen"
	"influmax/internal/graph"
	"influmax/internal/rrr"
)

// The recounting backend against the decrementing ones (DESIGN.md
// §18.1): IndexCoverage's counts are upper bounds between recounts, and
// the engine must never act on one. Over the same samples it has to give
// every non-audience query the decrementing backends' answer — seeds,
// gains, covered, eligible, spent budget — and examine the same heap
// entries on the way.

// selectOn runs q over be and returns the answer with the number of
// heap entries the argmax examined.
func selectOn(be Coverage[int32], n int, q Query) (QueryResult, int, error) {
	g := new(greedy[int32])
	err := g.run(be, n, q, nil)
	return g.res, g.pops, err
}

// recountQueries is every non-audience shape over n vertices: padding
// past every vertex, budgets below one and fractional, costs whose
// ratios tie, and the blocked list given.
func recountQueries(n int, blocked []graph.Vertex) map[string]Query {
	costs := make([]float64, n)
	for v := range costs {
		costs[v] = float64(int(1) << (v % 3)) // 2/1 = 4/2: equal ratios of unequal gains
	}
	return map[string]Query{
		"plain":                 {K: 6},
		"every vertex":          {K: n},
		"k past n":              {K: n + 3},
		"budget below one":      {K: 5, Budget: 0.5},
		"fractional budget":     {K: n, Budget: 4.5},
		"ratio ties":            {K: 10, Costs: costs, Budget: 9.5},
		"ratio ties, padding":   {K: n + 1, Costs: costs, Budget: float64(3 * n)},
		"budget below any cost": {K: 5, Costs: costs, Budget: 0.5},
		"blocked":               {K: 8, Blocked: blocked},
		"blocked, padding":      {K: n, Blocked: blocked},
		"blocked with costs":    {K: 12, Costs: costs, Budget: 7.5, Blocked: blocked},
	}
}

// checkRecount holds IndexCoverage over idx to every reference backend
// on every query of recountQueries. The blocked list names the vertex of
// highest degree twice, so its second purge finds nothing left, and the
// first vertex in no sample, if any, twice.
func checkRecount(t *testing.T, n int, idx *rrr.Index, refs map[string]func() Coverage[int32]) {
	t.Helper()
	top := graph.Vertex(0)
	for v := range graph.Vertex(n) {
		if idx.Degree(v) > idx.Degree(top) {
			top = v
		}
	}
	blocked := []graph.Vertex{top, top}
	for v := range graph.Vertex(n) {
		if idx.Degree(v) == 0 {
			blocked = append(blocked, v, v)
			break
		}
	}
	for name, q := range recountQueries(n, blocked) {
		got, gotPops, err := selectOn(NewIndexCoverage(idx), n, q)
		if err != nil {
			t.Fatalf("%s: recount: %v", name, err)
		}
		for ref, be := range refs {
			want, wantPops, err := selectOn(be(), n, q)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, ref, err)
			}
			if !sameResult(&got, &want) || gotPops != wantPops {
				t.Fatalf("%s: recount %+v (%d pops), %s %+v (%d pops)", name, got, gotPops, ref, want, wantPops)
			}
		}
	}
}

// TestRecountMatchesDecrement is the equivalence suite: over the three
// fixed-seed graphs and the IC, LT and WC configurations, and over a
// hand-built collection in which some vertices are in no sample, the
// recounting backend matches the flat and coded backends, and the bit
// matrix's recounting backend, at one and four workers.
func TestRecountMatchesDecrement(t *testing.T) {
	for _, gc := range queryGraphs {
		for _, cfg := range queryConfigs {
			t.Run(fmt.Sprintf("g%d-%s", gc.seed, cfg.name), func(t *testing.T) {
				g, col, idx, ccol, cidx, _ := queryStores(t, gc, cfg)
				n := g.NumVertices()
				checkRecount(t, n, cidx, map[string]func() Coverage[int32]{
					"flat/1":   func() Coverage[int32] { return NewFlatCoverage(col, idx, nil, 1) },
					"flat/4":   func() Coverage[int32] { return NewFlatCoverage(col, idx, nil, 4) },
					"coded/1":  func() Coverage[int32] { return NewCodedCoverage(ccol, cidx, nil, 1) },
					"coded/4":  func() Coverage[int32] { return NewCodedCoverage(ccol, cidx, nil, 4) },
					"matrix/1": func() Coverage[int32] { return newMatrixCoverage(rrr.MatrixOf(col, 1), 1) },
					"matrix/4": func() Coverage[int32] { return newMatrixCoverage(rrr.MatrixOf(col, 4), 4) },
				})
			})
		}
	}
	t.Run("absent vertices", func(t *testing.T) {
		const n = 40
		col := rrr.NewCollection(n)
		for _, s := range fakeSamples(5, n/2, 60) {
			col.Append(s) // vertices n/2 and up are in no sample
		}
		idx := rrr.BuildIndex(col, 1)
		ccol := Transcode(col, StoreCoded, 1)
		cidx := rrr.BuildIndexCoded(ccol, 1)
		checkRecount(t, n, idx, map[string]func() Coverage[int32]{
			"flat":   func() Coverage[int32] { return NewFlatCoverage(col, idx, nil, 2) },
			"coded":  func() Coverage[int32] { return NewCodedCoverage(ccol, cidx, nil, 2) },
			"matrix": func() Coverage[int32] { return newMatrixCoverage(rrr.MatrixOf(col, 2), 2) },
		})
	})
}

// TestIndexCoverageRefusesAudience: the recounting backend serves no
// audience, and says so rather than answering over every sample.
func TestIndexCoverageRefusesAudience(t *testing.T) {
	col := rrr.NewCollection(4)
	col.Append([]graph.Vertex{0, 1})
	be := NewIndexCoverage(rrr.BuildIndex(col, 1))
	if _, _, err := be.Start([]graph.Vertex{1}); err == nil {
		t.Fatal("Start with an audience succeeded")
	}
	if res, err := Greedy[int32](be, 4, Query{K: 1, Audience: []graph.Vertex{1}}, nil); err == nil || len(res.Seeds) != 0 {
		t.Fatalf("audience query over the recounting backend: %+v, %v", res, err)
	}
}

// TestPreferRecount pins the density rule on both sides: the served
// fixture (mean sample size under ten, n in the tens of thousands)
// recounts, and a uniform-IC com-DBLP analog, whose samples span a large
// share of n, decrements.
func TestPreferRecount(t *testing.T) {
	_, idx, _ := servedSketch(t, 0.02, 50)
	if !PreferRecount(idx) {
		t.Errorf("served fixture (%d entries in %d samples over %d vertices) does not recount",
			idx.Entries(), idx.Count(), idx.NumVertices())
	}
	d, err := gen.ByName("com-DBLP")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Generate(0.01, 1)
	g.AssignUniform(2)
	_, _, idx, err = DrawCoded(g, Options{K: 20, Epsilon: 0.5, Model: diffuse.IC, Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if PreferRecount(idx) {
		t.Errorf("dense fixture (%d entries in %d samples over %d vertices) recounts",
			idx.Entries(), idx.Count(), idx.NumVertices())
	}
}

// FuzzRecountMatchesDecrement draws a tiny collection and a query from
// the input and requires the recounting backends over the index and over
// the bit matrix to match the coded one: answer and heap entries
// examined.
func FuzzRecountMatchesDecrement(f *testing.F) {
	f.Add([]byte{5, 3, 0, 1, 2, 4, 3, 1, 4, 2, 0, 0})
	f.Add([]byte{8, 12, 6, 7, 1, 1, 1, 3, 5, 7, 2, 2, 9, 0, 4, 4, 4, 1, 6})
	f.Add([]byte{16, 40, 200, 3, 17, 99, 250, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		n := 1 + next()%16
		col := rrr.NewCollection(n)
		for range next() % 41 {
			size := 1 + next()%n
			var s []graph.Vertex
			for range size {
				if v := graph.Vertex(next() % n); !slices.Contains(s, v) {
					s = append(s, v)
				}
			}
			col.Append(s)
		}
		q := Query{K: 1 + next()%(n+2)}
		if mode := next(); mode%2 == 1 {
			q.Budget = float64(next()%(2*n)) / 2
		}
		if next()%2 == 1 && q.Budgeted() {
			q.Costs = make([]float64, n)
			for v := range q.Costs {
				q.Costs[v] = float64(1+next()%4) / 2
			}
		}
		for range next() % 4 {
			q.Blocked = append(q.Blocked, graph.Vertex(next()%n))
		}
		idx := rrr.BuildIndex(col, 1)
		coded := Transcode(col, StoreCoded, 1)
		cidx := rrr.BuildIndexCoded(coded, 1)
		want, wantPops, err := selectOn(NewCodedCoverage(coded, cidx, nil, 1), n, q)
		if err != nil {
			t.Fatal(err)
		}
		got, gotPops, err := selectOn(NewIndexCoverage(idx), n, q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(&got, &want) || gotPops != wantPops {
			t.Fatalf("n %d, %d samples, %+v: recount %+v (%d pops), decrement %+v (%d pops)",
				n, col.Count(), q, got, gotPops, want, wantPops)
		}
		got, gotPops, err = selectOn(newMatrixCoverage(rrr.MatrixOf(col, 1), 1), n, q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(&got, &want) || gotPops != wantPops {
			t.Fatalf("n %d, %d samples, %+v: matrix %+v (%d pops), decrement %+v (%d pops)",
				n, col.Count(), q, got, gotPops, want, wantPops)
		}
	})
}
