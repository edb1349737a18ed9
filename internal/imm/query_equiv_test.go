package imm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"influmax/internal/baseline"
	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/rrr"
)

// The query-diversity differential suite (DESIGN.md §17): over the three
// fixed-seed graphs and the IC/LT/WC configurations of the store
// equivalence gate, every query mode is pinned two ways. First, the flat
// single-worker run is compared against the oracle-generic references in
// internal/baseline, instantiated with the exact CoverageOf estimator — an
// exact coverage oracle makes the exhaustive greedy, CELF and the sketch
// loop answers identical, not merely close. Second, the coded store and
// the four-worker runs are required byte-identical to that pinned flat
// run, which transfers the baseline pinning across the whole
// store × worker matrix.

type queryConfig struct {
	name  string
	model diffuse.Model
	prep  func(*graph.Graph)
}

var queryConfigs = []queryConfig{
	{"IC", diffuse.IC, func(*graph.Graph) {}},
	{"LT", diffuse.LT, func(g *graph.Graph) { g.NormalizeLT() }},
	{"WC", diffuse.IC, func(g *graph.Graph) { g.AssignWeightedCascade() }},
}

var queryGraphs = []struct {
	seed uint64
	n, m int
}{
	{101, 150, 1200},
	{202, 80, 250},
	{303, 300, 3000},
}

// queryStores builds the flat and coded stores of one IMM run plus the
// derived root column. Both runs use PerSample RNG, so they hold the same
// samples under different representations.
func queryStores(t *testing.T, gc struct {
	seed uint64
	n, m int
}, cfg queryConfig) (*graph.Graph, *rrr.Collection, *rrr.Index, *rrr.CodedCollection, *rrr.Index, []graph.Vertex) {
	t.Helper()
	g := testGraph(gc.seed, gc.n, gc.m)
	cfg.prep(g)
	opt := Options{K: 6, Epsilon: 0.5, Model: cfg.model, Workers: 4, Seed: gc.seed, Store: StoreFlat}
	_, col, idx, err := RunCollect(g, opt)
	if err != nil {
		t.Fatalf("flat build: %v", err)
	}
	opt.Store = StoreCoded
	_, ccol, cidx, err := RunSketch(g, opt)
	if err != nil {
		t.Fatalf("coded build: %v", err)
	}
	if ccol.Count() != col.Count() {
		t.Fatalf("stores disagree on sample count: %d vs %d", ccol.Count(), col.Count())
	}
	roots := RootsRange(gc.seed, 0, col.Count(), g.NumVertices(), 4)
	return g, col, idx, ccol, cidx, roots
}

// queryCosts is the deterministic integral cost vector of the suite.
func queryCosts(n int) []float64 {
	costs := make([]float64, n)
	for v := range costs {
		costs[v] = float64(1 + uint64(v)*2654435761%4)
	}
	return costs
}

func sameResult(a, b *QueryResult) bool {
	return slices.Equal(a.Seeds, b.Seeds) && slices.Equal(a.Gains, b.Gains) &&
		a.Covered == b.Covered && a.Eligible == b.Eligible && a.SpentBudget == b.SpentBudget
}

func TestQueryDifferential(t *testing.T) {
	for _, gc := range queryGraphs {
		for _, cfg := range queryConfigs {
			t.Run(fmt.Sprintf("g%d-%s", gc.seed, cfg.name), func(t *testing.T) {
				g, col, idx, ccol, cidx, roots := queryStores(t, gc, cfg)
				n := g.NumVertices()
				count := col.Count()
				const k = 6

				costs := queryCosts(n)
				audience := make([]graph.Vertex, 0, n/3+1)
				for v := 0; v < n; v += 3 {
					audience = append(audience, graph.Vertex(v))
				}
				plainSeeds, plainCov := SelectSeedsIndexed(col, idx, k, 1)
				blocked := plainSeeds[:2]

				queries := map[string]Query{
					"plain":    {K: k},
					"budgeted": {K: k, Costs: costs, Budget: 6},
					"targeted": {K: k, Audience: audience},
					"blocked":  {K: k, Blocked: blocked},
				}

				// Reference: flat store, one worker.
				ref := map[string]*QueryResult{}
				for name, q := range queries {
					qr, err := SelectQueryIndexed(col, idx, roots, q, 1)
					if err != nil {
						t.Fatalf("%s flat w=1: %v", name, err)
					}
					ref[name] = qr
				}

				// Byte-identity across the store × worker matrix.
				for name, q := range queries {
					for _, p := range []int{1, 4} {
						fq, err := SelectQueryIndexed(col, idx, roots, q, p)
						if err != nil {
							t.Fatalf("%s flat w=%d: %v", name, p, err)
						}
						sq, err := SelectQuerySketch(ccol, cidx, roots, q, p)
						if err != nil {
							t.Fatalf("%s coded w=%d: %v", name, p, err)
						}
						if !sameResult(fq, ref[name]) {
							t.Fatalf("%s flat w=%d diverges from w=1: %+v vs %+v", name, p, fq, ref[name])
						}
						if !sameResult(sq, ref[name]) {
							t.Fatalf("%s coded w=%d diverges from flat: %+v vs %+v", name, p, sq, ref[name])
						}
					}
				}

				// Plain query == plain selection, on both stores.
				qr := ref["plain"]
				if !slices.Equal(qr.Seeds, plainSeeds) || qr.Covered != plainCov {
					t.Fatalf("plain query (%v, %d) != SelectSeedsIndexed (%v, %d)",
						qr.Seeds, qr.Covered, plainSeeds, plainCov)
				}
				if qr.Eligible != int64(count) || qr.SpentBudget != 0 {
					t.Fatalf("plain query bookkeeping: eligible %d (want %d), spent %v (want 0)",
						qr.Eligible, count, qr.SpentBudget)
				}
				skSeeds, skCov := SelectSeedsSketch(ccol, cidx, k, 4)
				if !slices.Equal(skSeeds, plainSeeds) || skCov != plainCov {
					t.Fatalf("SelectSeedsSketch (%v, %d) != flat (%v, %d)", skSeeds, skCov, plainSeeds, plainCov)
				}

				// Exact coverage oracle over the incidence index — the sketch
				// loop's own objective, so the references must match exactly.
				oracle := func(seeds []graph.Vertex) float64 {
					covered, _, err := CoverageOf(count, idx, nil, seeds, nil)
					if err != nil {
						t.Fatalf("oracle: %v", err)
					}
					return float64(covered)
				}

				// Budgeted vs both cost-benefit references.
				qb := ref["budgeted"]
				for refName, fn := range map[string]func(int, []float64, float64, int, baseline.SpreadOracle) ([]graph.Vertex, []float64, error){
					"BudgetedGreedy": baseline.BudgetedGreedy,
					"CELFBudgeted":   baseline.CELFBudgeted,
				} {
					wantSeeds, wantGains, err := fn(n, costs, 6, k, oracle)
					if err != nil {
						t.Fatalf("%s: %v", refName, err)
					}
					if !slices.Equal(qb.Seeds, wantSeeds) {
						t.Fatalf("budgeted seeds %v != %s %v", qb.Seeds, refName, wantSeeds)
					}
					for i, gain := range qb.Gains {
						if float64(gain) != wantGains[i] {
							t.Fatalf("budgeted gain[%d] = %d != %s %v", i, gain, refName, wantGains[i])
						}
					}
				}
				spent := 0.0
				for _, s := range qb.Seeds {
					spent += costs[s]
				}
				if qb.SpentBudget != spent || spent > 6 {
					t.Fatalf("budgeted spent %v (recomputed %v, budget 6)", qb.SpentBudget, spent)
				}

				// Targeted vs the exhaustive greedy over the audience-filtered
				// estimator; Eligible must equal the direct root census.
				targetOracle := func(seeds []graph.Vertex) float64 {
					covered, _, err := CoverageOf(count, idx, roots, seeds, audience)
					if err != nil {
						t.Fatalf("target oracle: %v", err)
					}
					return float64(covered)
				}
				qt := ref["targeted"]
				wantSeeds, wantGains := baseline.GreedyOracle(n, k, nil, targetOracle)
				if !slices.Equal(qt.Seeds, wantSeeds) {
					t.Fatalf("targeted seeds %v != greedy reference %v", qt.Seeds, wantSeeds)
				}
				for i, gain := range qt.Gains {
					if float64(gain) != wantGains[i] {
						t.Fatalf("targeted gain[%d] = %d != reference %v", i, gain, wantGains[i])
					}
				}
				eligible := int64(0)
				inAud := make([]bool, n)
				for _, v := range audience {
					inAud[v] = true
				}
				for _, r := range roots {
					if inAud[r] {
						eligible++
					}
				}
				if qt.Eligible != eligible {
					t.Fatalf("targeted eligible %d != root census %d", qt.Eligible, eligible)
				}

				// Blocked vs the banned greedy with the rival's coverage folded
				// into (and subtracted back out of) the oracle.
				blockedCov := oracle(blocked)
				blockedOracle := func(seeds []graph.Vertex) float64 {
					all := append(append(make([]graph.Vertex, 0, len(seeds)+len(blocked)), blocked...), seeds...)
					return oracle(all) - blockedCov
				}
				qc := ref["blocked"]
				wantSeeds, wantGains = baseline.GreedyOracle(n, k, blocked, blockedOracle)
				if !slices.Equal(qc.Seeds, wantSeeds) {
					t.Fatalf("blocked seeds %v != greedy reference %v", qc.Seeds, wantSeeds)
				}
				for i, gain := range qc.Gains {
					if float64(gain) != wantGains[i] {
						t.Fatalf("blocked gain[%d] = %d != reference %v", i, gain, wantGains[i])
					}
				}
				for _, s := range qc.Seeds {
					if slices.Contains(blocked, s) {
						t.Fatalf("blocked vertex %d selected: %v", s, qc.Seeds)
					}
				}

				// Covered always telescopes from the gains.
				for name, r := range ref {
					sum := int64(0)
					for _, gain := range r.Gains {
						sum += gain
					}
					if sum != r.Covered {
						t.Fatalf("%s: gains sum %d != covered %d", name, sum, r.Covered)
					}
				}
			})
		}
	}
}

// TestQueryRootsIdentity checks the PerSample root derivation against the
// store itself: rootAt is consistent with RootsRange, and every derived
// root is a member of its own sample (the RR construction starts at the
// root), verified through the incidence index of both stores.
func TestQueryRootsIdentity(t *testing.T) {
	gc := queryGraphs[1]
	_, col, idx, _, cidx, roots := queryStores(t, gc, queryConfigs[0])
	n := col.NumVertices()
	for j := range roots {
		if want := rootAt(gc.seed, uint64(j), n); roots[j] != want {
			t.Fatalf("roots[%d] = %d, rootAt says %d", j, roots[j], want)
		}
	}
	for _, index := range []*rrr.Index{idx, cidx} {
		for j, r := range roots {
			if !slices.Contains(index.SamplesOf(r), int32(j)) {
				t.Fatalf("sample %d does not contain its root %d", j, r)
			}
		}
		// The coded index speaks relabeled ids internally but SamplesOf takes
		// original vertex ids, so one loop body serves both stores.
	}
}

// TestCoverageOfMatchesMonteCarlo pins the exposed estimator against the
// forward-simulation oracle: n * covered / count must land within a few
// combined standard errors of the Monte Carlo spread for the selected
// seeds, under every model configuration.
func TestCoverageOfMatchesMonteCarlo(t *testing.T) {
	gc := queryGraphs[0]
	for _, cfg := range queryConfigs {
		g, col, idx, _, _, _ := queryStores(t, gc, cfg)
		n := g.NumVertices()
		seeds, _ := SelectSeedsIndexed(col, idx, 5, 4)
		covered, eligible, err := CoverageOf(col.Count(), idx, nil, seeds, nil)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if eligible != int64(col.Count()) {
			t.Fatalf("%s: eligible %d != count %d", cfg.name, eligible, col.Count())
		}
		est := float64(n) * float64(covered) / float64(col.Count())
		mc, se := diffuse.EstimateSpread(g, cfg.model, seeds, 4000, 4, gc.seed^0xe7a1)
		// RIS-side standard error: n * sqrt(p(1-p)/count) <= n/(2 sqrt(count)).
		risSE := float64(n) / (2 * math.Sqrt(float64(col.Count())))
		if tol := 5 * (se + risSE); math.Abs(est-mc) > tol {
			t.Fatalf("%s: RIS estimate %.2f vs Monte Carlo %.2f ± %.2f (tolerance %.2f)",
				cfg.name, est, mc, se, tol)
		}
	}
}
