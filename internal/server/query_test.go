package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"influmax/internal/cluster"
	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
)

// queryTestServer builds a prewarmed server plus reference closures over
// the single-process store at the same configuration: ref answers any
// query, spreadRef is the exact CoverageOf estimator, and count is the
// store's sample count.
func queryTestServer(t *testing.T, cfg Config) (ts *httptest.Server, ref func(imm.Query) *imm.QueryResult, spreadRef func(seeds, audience []graph.Vertex) (int64, int64), count int) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	_, col, idx, err := imm.RunCollect(cfg.Graph, imm.Options{
		K: cfg.KMax, Epsilon: cfg.Epsilon, Model: cfg.Model,
		Workers: cfg.Workers, Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	roots := imm.RootsRange(cfg.Seed, 0, col.Count(), cfg.Graph.NumVertices(), cfg.Workers)
	ref = func(q imm.Query) *imm.QueryResult {
		qr, err := imm.SelectQueryIndexed(col, idx, roots, q, cfg.Workers)
		if err != nil {
			t.Fatalf("reference query: %v", err)
		}
		return qr
	}
	spreadRef = func(seeds, audience []graph.Vertex) (int64, int64) {
		covered, eligible, err := imm.CoverageOf(col.Count(), idx, roots, seeds, audience)
		if err != nil {
			t.Fatalf("reference spread: %v", err)
		}
		return covered, eligible
	}
	return ts, ref, spreadRef, col.Count()
}

// TestSeedsQueryModes drives the extended /v1/seeds fields end to end:
// every query mode served over HTTP must match the single-process
// SelectQueryIndexed answer, the mode extras (gains, eligible,
// spentBudget) must be present exactly when the query is non-plain, and
// the per-mode counters must tick.
func TestSeedsQueryModes(t *testing.T) {
	g := testGraph(7, 120, 900)
	cfg := testConfig(g)
	ts, ref, _, _ := queryTestServer(t, cfg)
	n := g.NumVertices()

	costs := make([]float64, n)
	costJSON := make([]string, n)
	for v := range costs {
		costs[v] = float64(1 + uint64(v)*2654435761%4)
		costJSON[v] = fmt.Sprintf("%g", costs[v])
	}
	var audience []graph.Vertex
	for v := 0; v < n; v += 3 {
		audience = append(audience, graph.Vertex(v))
	}
	audJSON, _ := json.Marshal(audience)
	plain := ref(imm.Query{K: 5})
	blocked := plain.Seeds[:2]
	blockedJSON, _ := json.Marshal(blocked)

	cases := []struct {
		name string
		body string
		q    imm.Query
	}{
		{"budgeted", fmt.Sprintf(`{"k":5,"costs":[%s],"budget":6}`, strings.Join(costJSON, ",")),
			imm.Query{K: 5, Costs: costs, Budget: 6}},
		{"unit-budget", `{"k":5,"budget":3}`, imm.Query{K: 5, Budget: 3}},
		{"empty-costs-budget", `{"k":5,"costs":[],"budget":3}`, imm.Query{K: 5, Budget: 3}},
		{"targeted", fmt.Sprintf(`{"k":5,"audience":%s}`, audJSON), imm.Query{K: 5, Audience: audience}},
		{"blocked", fmt.Sprintf(`{"k":5,"blocked":%s}`, blockedJSON), imm.Query{K: 5, Blocked: blocked}},
	}
	for _, tc := range cases {
		status, _, got := postSeeds(t, ts.Client(), ts.URL, tc.body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, status)
		}
		want := ref(tc.q)
		if !slices.Equal(got.Seeds, want.Seeds) || !slices.Equal(got.Gains, want.Gains) {
			t.Fatalf("%s: served (%v, %v) != reference (%v, %v)",
				tc.name, got.Seeds, got.Gains, want.Seeds, want.Gains)
		}
		if got.Eligible != want.Eligible || got.SpentBudget != want.SpentBudget {
			t.Fatalf("%s: eligible/spent (%d, %v) != (%d, %v)",
				tc.name, got.Eligible, got.SpentBudget, want.Eligible, want.SpentBudget)
		}
	}

	// An empty costs array is no costs: the request is plain.
	if status, _, got := postSeeds(t, ts.Client(), ts.URL, `{"k":5,"costs":[]}`); status != http.StatusOK || !slices.Equal(got.Seeds, plain.Seeds) {
		t.Fatalf("empty costs: status %d seeds %v, plain %v", status, got.Seeds, plain.Seeds)
	}

	// A plain request keeps the historical response shape: no gains,
	// eligible or spentBudget keys at all.
	resp, err := ts.Client().Post(ts.URL+"/v1/seeds", "application/json", strings.NewReader(`{"k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, key := range []string{`"gains"`, `"eligible"`, `"spentBudget"`} {
		if strings.Contains(string(raw), key) {
			t.Fatalf("plain response leaks %s: %s", key, raw)
		}
	}

	// The per-mode counters observed every non-plain query above.
	mr, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(mr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	wantCounters := map[string]int64{
		"server/query-budgeted": 3,
		"server/query-targeted": 1,
		"server/query-blocked":  1,
	}
	for name, want := range wantCounters {
		if got := snap.Counters[name]; got != want {
			t.Fatalf("counter %s = %d, want %d", name, got, want)
		}
	}

	// Mode validation errors answer 400.
	for _, body := range []string{
		`{"k":5,"costs":[1,2]}`,             // costs without budget / wrong length
		`{"k":5,"budget":-2}`,               // negative budget
		`{"k":5,"audience":[100000]}`,       // audience out of range
		`{"k":5,"blocked":[100000]}`,        // blocked out of range
		`{"k":5,"budget":1e999}`,            // infinite budget (json overflow)
		`{"k":5,"costs":"many","budget":1}`, // type mismatch
	} {
		status, _, _ := postSeeds(t, ts.Client(), ts.URL, body)
		if status != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, status)
		}
	}
}

// TestSeedsQueryDefaults: -budget/-audience/-blocked server defaults are
// inherited by requests that omit the fields and cleared by explicit
// empty values.
func TestSeedsQueryDefaults(t *testing.T) {
	g := testGraph(11, 90, 600)
	cfg := testConfig(g)
	var audience []graph.Vertex
	for v := 0; v < g.NumVertices(); v += 2 {
		audience = append(audience, graph.Vertex(v))
	}
	cfg.DefaultBudget = 4
	cfg.DefaultAudience = audience
	ts, ref, _, _ := queryTestServer(t, cfg)

	// Omitting the fields inherits both defaults.
	status, _, got := postSeeds(t, ts.Client(), ts.URL, `{"k":4}`)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	want := ref(imm.Query{K: 4, Budget: 4, Audience: audience})
	if !slices.Equal(got.Seeds, want.Seeds) || got.SpentBudget != want.SpentBudget || got.Eligible != want.Eligible {
		t.Fatalf("defaults not inherited: (%v, %v, %d) != (%v, %v, %d)",
			got.Seeds, got.SpentBudget, got.Eligible, want.Seeds, want.SpentBudget, want.Eligible)
	}

	// Explicit zero budget and empty audience clear the defaults — the
	// query is plain again and byte-identical to the no-defaults server.
	status, _, got = postSeeds(t, ts.Client(), ts.URL, `{"k":4,"budget":0,"audience":[]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	wantPlain := ref(imm.Query{K: 4})
	if !slices.Equal(got.Seeds, wantPlain.Seeds) {
		t.Fatalf("cleared defaults: %v != plain %v", got.Seeds, wantPlain.Seeds)
	}
}

// TestSpreadEndpoint pins POST /v1/spread against the exposed CoverageOf
// estimator, with and without an audience filter, plus its error paths.
func TestSpreadEndpoint(t *testing.T) {
	g := testGraph(13, 100, 700)
	cfg := testConfig(g)
	ts, ref, spreadRef, count := queryTestServer(t, cfg)
	n := g.NumVertices()

	plain := ref(imm.Query{K: 5})
	var audience []graph.Vertex
	for v := 0; v < n; v += 3 {
		audience = append(audience, graph.Vertex(v))
	}

	post := func(body string) (int, spreadResponse) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/spread", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr spreadResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, sr
	}

	seedsJSON, _ := json.Marshal(plain.Seeds)
	audJSON, _ := json.Marshal(audience)
	for _, tc := range []struct {
		name     string
		body     string
		audience []graph.Vertex
	}{
		{"unrestricted", fmt.Sprintf(`{"seeds":%s}`, seedsJSON), nil},
		{"targeted", fmt.Sprintf(`{"seeds":%s,"audience":%s}`, seedsJSON, audJSON), audience},
	} {
		status, sr := post(tc.body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, status)
		}
		wantCovered, wantEligible := spreadRef(plain.Seeds, tc.audience)
		if sr.Covered != wantCovered || sr.Eligible != wantEligible {
			t.Fatalf("%s: (%d, %d) != CoverageOf (%d, %d)",
				tc.name, sr.Covered, sr.Eligible, wantCovered, wantEligible)
		}
		wantFrac := float64(wantCovered) / float64(count)
		if sr.CoverageFraction != wantFrac || sr.EstimatedSpread != wantFrac*float64(n) {
			t.Fatalf("%s: fraction/estimate (%v, %v) != (%v, %v)",
				tc.name, sr.CoverageFraction, sr.EstimatedSpread, wantFrac, wantFrac*float64(n))
		}
		if tc.audience == nil && sr.Covered != plain.Covered {
			t.Fatalf("spread of the selected seeds %d != selection coverage %d", sr.Covered, plain.Covered)
		}
	}

	for _, body := range []string{
		`{"seeds":`,                      // malformed JSON
		`{}`,                             // no seeds
		`{"seeds":[]}`,                   // empty seeds
		`{"seeds":[100000]}`,             // seed out of range
		`{"seeds":[1],"audience":[1e9]}`, // audience out of range
		`{"seeds":[1],"epsilon":7}`,      // invalid epsilon override
	} {
		if status, _ := post(body); status != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, status)
		}
	}
}

// TestSpreadShardModeRejected: shard replicas refuse /v1/spread the same
// way they refuse /v1/seeds — the router owns fleet-wide estimates.
func TestSpreadShardModeRejected(t *testing.T) {
	g := testGraph(17, 60, 400)
	shards, err := cluster.BuildShards(g, cluster.BuildOptions{
		K: 5, Epsilon: 0.5, Model: diffuse.IC, Seed: 3, Workers: 2, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(g)
	cfg.ClusterShard = shards[0]
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/spread", "application/json", strings.NewReader(`{"seeds":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("shard-mode spread: status %d, want 400", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "cluster router") {
		t.Fatalf("shard-mode spread error does not point at the router: %s", raw)
	}
}

// TestQueryExSteadyStateAllocs pins the pooled query state in the served
// regime (n far above the sample size, so no purge is worth its workers):
// once warm, a plain Sketch.QueryEx allocates its result and a handful of
// small headers — not the O(n) counters, heap and covered bits, and not a
// goroutine per round, which came to about a thousand objects per query.
// The bound leaves room for a GC cycle emptying the pool, and for the race
// detector's pool, which drops a quarter of all Puts.
func TestQueryExSteadyStateAllocs(t *testing.T) {
	g := testGraph(7, 20000, 30000)
	g.AssignWeightedCascade()
	cfg := testConfig(g)
	sk, err := BuildSketch(g, SketchKey{
		GraphDigest: g.Digest(), Model: cfg.Model, Epsilon: cfg.Epsilon,
		KMax: cfg.KMax, Seed: cfg.Seed,
	}, cfg.Workers, imm.StoreCoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := imm.Query{K: cfg.KMax}
	allocs := testing.AllocsPerRun(50, func() {
		if res, err := sk.QueryEx(q, cfg.Workers); err != nil || len(res.Seeds) != q.K {
			t.Fatalf("query: %v", err)
		}
	})
	t.Logf("%.0f allocations per plain query (k %d, n %d)", allocs, q.K, g.NumVertices())
	if allocs > 40 {
		t.Fatalf("plain QueryEx allocates %.0f objects per call in steady state, want at most 40", allocs)
	}
}

// TestTargetedQueryAllocatesUnderN pins the audience filter's pooled
// state: once warm, a targeted Sketch.QueryEx allocates its result and a
// few headers, not an n-sized audience mask or a theta-sized exclusion
// column, which came to about n + theta bytes per query. It takes the
// least of 20 queries' allocated bytes with the collector off, since the
// race detector's pool drops a quarter of all Puts at random.
func TestTargetedQueryAllocatesUnderN(t *testing.T) {
	g := testGraph(7, 20000, 30000)
	g.AssignWeightedCascade()
	cfg := testConfig(g)
	sk, err := BuildSketch(g, SketchKey{
		GraphDigest: g.Digest(), Model: cfg.Model, Epsilon: cfg.Epsilon,
		KMax: cfg.KMax, Seed: cfg.Seed,
	}, cfg.Workers, imm.StoreCoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	var audience []graph.Vertex
	for v := 0; v < n; v += 100 {
		audience = append(audience, graph.Vertex(v))
	}
	q := imm.Query{K: cfg.KMax, Audience: audience}
	query := func() {
		if res, err := sk.QueryEx(q, cfg.Workers); err != nil || len(res.Seeds) != q.K {
			t.Fatalf("query: %v", err)
		}
	}
	query() // fills the pools and the root column
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for range 20 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		query()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	t.Logf("%d bytes allocated by a targeted query (k %d, n %d, %d samples)", least, q.K, n, sk.Col.Count())
	if least >= uint64(n) {
		t.Fatalf("a warm targeted QueryEx allocates %d bytes, want fewer than n = %d", least, n)
	}
}

// TestSpreadAllocatesUnderTheta: a warm Sketch.Spread takes its covered
// bitset and audience mask from the selections' pool, so it allocates
// less than the θ/8 bytes of one covered bitset, with and without an
// audience.
func TestSpreadAllocatesUnderTheta(t *testing.T) {
	g := testGraph(7, 20000, 30000)
	g.AssignWeightedCascade()
	cfg := testConfig(g)
	sk, err := BuildSketch(g, SketchKey{
		GraphDigest: g.Digest(), Model: cfg.Model, Epsilon: cfg.Epsilon,
		KMax: cfg.KMax, Seed: cfg.Seed,
	}, cfg.Workers, imm.StoreCoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	var audience []graph.Vertex
	for v := 0; v < n; v += 100 {
		audience = append(audience, graph.Vertex(v))
	}
	seeds, _ := sk.Query(10, cfg.Workers)
	theta := sk.Col.Count()
	for _, aud := range [][]graph.Vertex{nil, audience} {
		spread := func() {
			if covered, _, err := sk.Spread(seeds, aud); err != nil || covered == 0 {
				t.Fatalf("spread: %d covered, %v", covered, err)
			}
		}
		spread() // fills the pool and the root column
		least := uint64(math.MaxUint64)
		func() {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var ms runtime.MemStats
			for range 20 {
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				spread()
				runtime.ReadMemStats(&ms)
				least = min(least, ms.TotalAlloc-before)
			}
		}()
		t.Logf("%d bytes allocated by a spread estimate (audience %d, %d samples)", least, len(aud), theta)
		if least >= uint64(theta/8) {
			t.Fatalf("a warm Spread with %d audience vertices allocates %d bytes, want fewer than θ/8 = %d", len(aud), least, theta/8)
		}
	}
}
