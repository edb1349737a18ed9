package imm

import (
	"testing"
	"testing/quick"

	"influmax/internal/graph"
	"influmax/internal/rrr"
)

// Property tests for the query-mode reductions (DESIGN.md §17): each
// degenerate query parameterization must collapse byte-identically to the
// plain top-k selection, on randomly drawn stores, for both
// representations. testing/quick drives the store shape; every derived
// quantity (costs, roots, k) is a pure function of the drawn seed.

// propStore builds a small random store pair (flat + coded with
// frequency relabeling) and a synthetic root column from one drawn seed.
func propStore(seed uint64) (*rrr.Collection, *rrr.Index, *rrr.CodedCollection, *rrr.Index, []graph.Vertex, int) {
	n := 20 + int(seed%5)*17
	m := 4 * n
	g := testGraph(seed, n, m)
	col := rrrCollection(g, seed^0xbeef, 120+int(seed%7)*40)
	idx := rrr.BuildIndex(col, 2)
	coded := rrr.FromCollection(col, rrr.NewRelabeling(rrr.IncidenceOf(col, 2)))
	cidx := rrr.BuildIndexCoded(coded, 2)
	roots := make([]graph.Vertex, col.Count())
	for j := range roots {
		// Synthetic but valid roots; only their membership in the audience
		// matters to the properties below.
		roots[j] = graph.Vertex((int(seed%100003) + j*7) % n)
	}
	return col, idx, coded, cidx, roots, n
}

func propK(seed uint64, n int) int { return 1 + int(seed>>8%uint64(n/2)) }

// runBoth answers q over the two stores and requires them identical.
func runBoth(t *testing.T, col *rrr.Collection, idx *rrr.Index, coded *rrr.CodedCollection, cidx *rrr.Index, roots []graph.Vertex, q Query) (*QueryResult, bool) {
	t.Helper()
	fq, err := SelectQueryIndexed(col, idx, roots, q, 2)
	if err != nil {
		t.Logf("flat: %v", err)
		return nil, false
	}
	sq, err := SelectQuerySketch(coded, cidx, roots, q, 2)
	if err != nil {
		t.Logf("coded: %v", err)
		return nil, false
	}
	if !sameResult(fq, sq) {
		t.Logf("stores diverge: %+v vs %+v", fq, sq)
		return nil, false
	}
	return fq, true
}

func quickCfg() *quick.Config { return &quick.Config{MaxCount: 25} }

// TestQueryPropUniformBudgetIsPlain: uniform costs with budget >= k * cost
// never bind, so the cost-benefit order reduces to the plain (gain,
// vertex) order and the budgeted selection is byte-identical to top-k —
// with the spend recorded.
func TestQueryPropUniformBudgetIsPlain(t *testing.T) {
	prop := func(seed uint64) bool {
		col, idx, coded, cidx, roots, n := propStore(seed)
		k := propK(seed, n)
		plain, ok := runBoth(t, col, idx, coded, cidx, roots, Query{K: k})
		if !ok {
			return false
		}
		cost := 0.5 + float64(seed%5)
		costs := make([]float64, n)
		for v := range costs {
			costs[v] = cost
		}
		qb, ok := runBoth(t, col, idx, coded, cidx, roots, Query{K: k, Costs: costs, Budget: float64(k) * cost})
		if !ok {
			return false
		}
		if !slicesEq(qb.Seeds, plain.Seeds) || !gainsEq(qb.Gains, plain.Gains) || qb.Covered != plain.Covered {
			t.Logf("budgeted %+v != plain %+v", qb, plain)
			return false
		}
		if qb.SpentBudget != float64(len(qb.Seeds))*cost {
			t.Logf("spent %v, want %v", qb.SpentBudget, float64(len(qb.Seeds))*cost)
			return false
		}
		// Implicit unit costs must reduce the same way.
		qu, ok := runBoth(t, col, idx, coded, cidx, roots, Query{K: k, Budget: float64(k)})
		if !ok {
			return false
		}
		return slicesEq(qu.Seeds, plain.Seeds) && qu.SpentBudget == float64(len(qu.Seeds))
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// TestQueryPropFullAudienceIsPlain: an audience containing every vertex
// filters nothing — the targeted selection equals top-k and every sample
// stays eligible.
func TestQueryPropFullAudienceIsPlain(t *testing.T) {
	prop := func(seed uint64) bool {
		col, idx, coded, cidx, roots, n := propStore(seed)
		k := propK(seed, n)
		plain, ok := runBoth(t, col, idx, coded, cidx, roots, Query{K: k})
		if !ok {
			return false
		}
		audience := make([]graph.Vertex, n)
		for v := range audience {
			audience[v] = graph.Vertex(v)
		}
		qt, ok := runBoth(t, col, idx, coded, cidx, roots, Query{K: k, Audience: audience})
		if !ok {
			return false
		}
		return slicesEq(qt.Seeds, plain.Seeds) && gainsEq(qt.Gains, plain.Gains) &&
			qt.Covered == plain.Covered && qt.Eligible == int64(col.Count())
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// TestQueryPropEmptyBlockedIsPlain: with no rival seeds the competitive
// selection purges nothing and equals top-k (nil and empty-but-non-nil
// blocked lists alike).
func TestQueryPropEmptyBlockedIsPlain(t *testing.T) {
	prop := func(seed uint64) bool {
		col, idx, coded, cidx, roots, n := propStore(seed)
		k := propK(seed, n)
		plain, ok := runBoth(t, col, idx, coded, cidx, roots, Query{K: k})
		if !ok {
			return false
		}
		qc, ok := runBoth(t, col, idx, coded, cidx, roots, Query{K: k, Blocked: []graph.Vertex{}})
		if !ok {
			return false
		}
		return slicesEq(qc.Seeds, plain.Seeds) && gainsEq(qc.Gains, plain.Gains) && qc.Covered == plain.Covered
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

// TestQueryPropCoverageMatchesGains: CoverageOf over a query's selected
// seeds reproduces both the summed reported gains and the Covered field —
// the estimator and the selection loop count the same thing.
func TestQueryPropCoverageMatchesGains(t *testing.T) {
	prop := func(seed uint64) bool {
		col, idx, coded, cidx, roots, n := propStore(seed)
		k := propK(seed, n)
		qr, ok := runBoth(t, col, idx, coded, cidx, roots, Query{K: k})
		if !ok {
			return false
		}
		covered, eligible, err := CoverageOf(col.Count(), idx, nil, qr.Seeds, nil)
		if err != nil {
			t.Logf("CoverageOf: %v", err)
			return false
		}
		sum := int64(0)
		for _, g := range qr.Gains {
			sum += g
		}
		return covered == qr.Covered && covered == sum && eligible == int64(col.Count())
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Fatal(err)
	}
}

func slicesEq(a, b []graph.Vertex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func gainsEq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
