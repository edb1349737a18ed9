package baseline

import (
	"math"
	"slices"
	"testing"

	"influmax/internal/graph"
	"influmax/internal/rng"
)

// coverageOracle builds a deterministic monotone-submodular oracle: `sets`
// random vertex subsets, oracle(S) = number of subsets S hits. This is the
// exact shape of RRR coverage, so CELF's lazy-evaluation invariant applies.
func coverageOracle(seed uint64, n, sets, maxLen int) SpreadOracle {
	r := rng.New(rng.NewLCG(seed))
	members := make([][]graph.Vertex, sets)
	for i := range members {
		l := 1 + r.Intn(maxLen)
		set := make([]graph.Vertex, l)
		for j := range set {
			set[j] = graph.Vertex(r.Intn(n))
		}
		members[i] = set
	}
	return func(seeds []graph.Vertex) float64 {
		in := make([]bool, n)
		for _, s := range seeds {
			in[s] = true
		}
		covered := 0
		for _, set := range members {
			for _, v := range set {
				if in[v] {
					covered++
					break
				}
			}
		}
		return float64(covered)
	}
}

// testCosts derives a positive integral cost vector in {1..4} from the
// vertex id — deterministic, and skewed enough that cost-benefit order
// differs from plain gain order.
func testCosts(n int) []float64 {
	costs := make([]float64, n)
	for v := range costs {
		costs[v] = float64(1 + uint64(v)*2654435761%4)
	}
	return costs
}

// TestCELFBudgetedMatchesExhaustive pins the lazy cost-benefit greedy
// against the exhaustive one on coverage oracles: identical seeds and gains
// for a spread of budgets, including budgets tight enough to skip the
// plain-greedy winner and loose enough to reduce to top-k.
func TestCELFBudgetedMatchesExhaustive(t *testing.T) {
	for _, tc := range []struct {
		seed   uint64
		n      int
		budget float64
		k      int
	}{
		{1, 40, 3, 5},
		{2, 60, 8, 6},
		{3, 90, 20, 8},
		{4, 120, 1e9, 10}, // effectively unbudgeted
	} {
		oracle := coverageOracle(tc.seed, tc.n, 300, 6)
		costs := testCosts(tc.n)
		wantSeeds, wantGains, err := BudgetedGreedy(tc.n, costs, tc.budget, tc.k, oracle)
		if err != nil {
			t.Fatalf("seed %d: exhaustive: %v", tc.seed, err)
		}
		gotSeeds, gotGains, err := CELFBudgeted(tc.n, costs, tc.budget, tc.k, oracle)
		if err != nil {
			t.Fatalf("seed %d: celf: %v", tc.seed, err)
		}
		if !slices.Equal(gotSeeds, wantSeeds) {
			t.Fatalf("seed %d budget %v: celf seeds %v != exhaustive %v",
				tc.seed, tc.budget, gotSeeds, wantSeeds)
		}
		if !slices.Equal(gotGains, wantGains) {
			t.Fatalf("seed %d budget %v: celf gains %v != exhaustive %v",
				tc.seed, tc.budget, gotGains, wantGains)
		}
		// The budget must actually hold.
		spent := 0.0
		for _, s := range gotSeeds {
			spent += costs[s]
		}
		if spent > tc.budget {
			t.Fatalf("seed %d: spent %v exceeds budget %v", tc.seed, spent, tc.budget)
		}
	}
}

// TestBudgetedUniformCostsReduceToGreedy: with unit costs and budget >= k
// the cost-benefit order degenerates to the plain (gain, vertex) order, so
// both budgeted references must equal the unbudgeted greedy.
func TestBudgetedUniformCostsReduceToGreedy(t *testing.T) {
	const n, k = 70, 7
	oracle := coverageOracle(9, n, 250, 5)
	unit := make([]float64, n)
	for v := range unit {
		unit[v] = 1
	}
	wantSeeds, wantGains := GreedyOracle(n, k, nil, oracle)
	for _, name := range []string{"exhaustive", "celf"} {
		fn := BudgetedGreedy
		if name == "celf" {
			fn = CELFBudgeted
		}
		seeds, gains, err := fn(n, unit, float64(k), k, oracle)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(seeds, wantSeeds) || !slices.Equal(gains, wantGains) {
			t.Fatalf("%s: (%v, %v) != greedy (%v, %v)", name, seeds, gains, wantSeeds, wantGains)
		}
	}
}

// TestBudgetedValidation exercises the shared argument checks.
func TestBudgetedValidation(t *testing.T) {
	oracle := func([]graph.Vertex) float64 { return 0 }
	good := []float64{1, 1, 1}
	cases := []struct {
		name   string
		n      int
		costs  []float64
		budget float64
		k      int
	}{
		{"k too small", 3, good, 1, 0},
		{"k too large", 3, good, 1, 4},
		{"zero budget", 3, good, 0, 1},
		{"negative budget", 3, good, -1, 1},
		{"costs length", 3, []float64{1, 1}, 1, 1},
		{"zero cost", 3, []float64{1, 0, 1}, 1, 1},
		{"nan cost", 3, []float64{1, math.NaN(), 1}, 1, 1},
	}
	for _, tc := range cases {
		if _, _, err := BudgetedGreedy(tc.n, tc.costs, tc.budget, tc.k, oracle); err == nil {
			t.Errorf("BudgetedGreedy %s: no error", tc.name)
		}
		if _, _, err := CELFBudgeted(tc.n, tc.costs, tc.budget, tc.k, oracle); err == nil {
			t.Errorf("CELFBudgeted %s: no error", tc.name)
		}
	}
}

// TestGreedyOracleBanned: banned vertices never appear in the output and
// the gains are marginal over the running set only (the banned set's own
// coverage is the oracle's business).
func TestGreedyOracleBanned(t *testing.T) {
	const n, k = 50, 6
	oracle := coverageOracle(11, n, 200, 5)
	banned := []graph.Vertex{3, 17, 42}
	seeds, gains := GreedyOracle(n, k, banned, oracle)
	if len(seeds) != k || len(gains) != k {
		t.Fatalf("got %d seeds / %d gains, want %d", len(seeds), len(gains), k)
	}
	for _, s := range seeds {
		if slices.Contains(banned, s) {
			t.Fatalf("banned vertex %d selected: %v", s, seeds)
		}
	}
	// Gains must telescope to the oracle value of the final set.
	sum := 0.0
	for _, g := range gains {
		sum += g
	}
	if got := oracle(seeds); got != sum {
		t.Fatalf("gains sum %v != oracle(seeds) %v", sum, got)
	}
}
