package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"influmax/internal/cluster"
	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
	"influmax/internal/mpi"
)

// refQuery answers q over the single-process sketch at the fleet
// configuration — the byte-identity oracle for every routed query mode.
func refQuery(t *testing.T, g *graph.Graph, opt cluster.BuildOptions, q imm.Query) *imm.QueryResult {
	t.Helper()
	_, coded, idx, err := imm.RunSketch(g, imm.Options{
		K: opt.K, Epsilon: opt.Epsilon, Model: opt.Model, Seed: opt.Seed, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	roots := imm.RootsRange(opt.Seed, 0, coded.Count(), g.NumVertices(), 2)
	qr, err := imm.SelectQuerySketch(coded, idx, roots, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	return qr
}

func queryTestInputs(n int, refSeeds []graph.Vertex) (costs []float64, audience, blocked []graph.Vertex) {
	costs = make([]float64, n)
	for v := range costs {
		costs[v] = float64(1 + uint64(v)*2654435761%4)
	}
	for v := 0; v < n; v += 4 {
		audience = append(audience, graph.Vertex(v))
	}
	blocked = refSeeds[:2]
	return
}

// TestRouterQueryModesMatchSingleProcess pins every routed query mode
// byte-identically against the single-process selection over the union of
// the shards' samples, for 1 and 3 shards, and the routed spread estimate
// against the exposed CoverageOf estimator.
func TestRouterQueryModesMatchSingleProcess(t *testing.T) {
	g := testGraph(13, 100, 700)
	opt := cluster.BuildOptions{K: 8, Epsilon: 0.5, Model: diffuse.IC, Seed: 31, Workers: 2}
	const k = 6
	plainRef := refQuery(t, g, opt, imm.Query{K: k})
	costs, audience, blocked := queryTestInputs(g.NumVertices(), plainRef.Seeds)

	queries := map[string]imm.Query{
		"plain":    {K: k},
		"budgeted": {K: k, Costs: costs, Budget: 7},
		"implicit": {K: k, Budget: 4}, // unit costs
		"targeted": {K: k, Audience: audience},
		"blocked":  {K: k, Blocked: blocked},
		"combined": {K: k, Budget: 5, Audience: audience, Blocked: blocked},
	}
	refs := map[string]*imm.QueryResult{"plain": plainRef}
	for name, q := range queries {
		if name != "plain" {
			refs[name] = refQuery(t, g, opt, q)
		}
	}

	for _, s := range []int{1, 3} {
		opt.Shards = s
		shards, err := cluster.BuildShards(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		fleet := startCommFleet(t, shards, mpi.FaultPlan{}, 2*time.Second)
		rt, err := cluster.NewRouter(fleet.conns, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, q := range queries {
			want := refs[name]
			res, err := rt.SelectQuery(cluster.RouterQuery{
				K: q.K, Costs: q.Costs, Budget: q.Budget, Audience: q.Audience, Blocked: q.Blocked,
			}, nil)
			if err != nil {
				t.Fatalf("s=%d %s: %v", s, name, err)
			}
			if !slices.Equal(res.Seeds, want.Seeds) || !slices.Equal(res.Gains, want.Gains) {
				t.Fatalf("s=%d %s: routed (%v, %v) != single-process (%v, %v)",
					s, name, res.Seeds, res.Gains, want.Seeds, want.Gains)
			}
			if res.Eligible != want.Eligible || res.SpentBudget != want.SpentBudget {
				t.Fatalf("s=%d %s: eligible/spent (%d, %v) != (%d, %v)",
					s, name, res.Eligible, res.SpentBudget, want.Eligible, want.SpentBudget)
			}
			wantCov := float64(want.Covered) / float64(res.TotalSamples)
			if res.CoverageFraction != wantCov {
				t.Fatalf("s=%d %s: coverage %v != %v", s, name, res.CoverageFraction, wantCov)
			}
			if res.Degraded {
				t.Fatalf("s=%d %s: clean fleet degraded", s, name)
			}
			for i, sh := range shards {
				if open := sh.Sessions(); open != 0 {
					t.Fatalf("s=%d %s: shard %d holds %d sessions after the query", s, name, i, open)
				}
			}
		}

		// Routed spread, with and without an audience, against CoverageOf
		// over the single-process store.
		_, coded, idx, err := imm.RunSketch(g, imm.Options{
			K: opt.K, Epsilon: opt.Epsilon, Model: opt.Model, Seed: opt.Seed, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		roots := imm.RootsRange(opt.Seed, 0, coded.Count(), g.NumVertices(), 2)
		for _, aud := range [][]graph.Vertex{nil, audience} {
			wantCovered, wantEligible, err := imm.CoverageOf(coded.Count(), idx, roots, plainRef.Seeds, aud)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := rt.Spread(plainRef.Seeds, aud)
			if err != nil {
				t.Fatalf("s=%d spread: %v", s, err)
			}
			if sp.Covered != wantCovered || sp.Eligible != wantEligible {
				t.Fatalf("s=%d spread aud=%v: (%d, %d) != (%d, %d)",
					s, aud != nil, sp.Covered, sp.Eligible, wantCovered, wantEligible)
			}
			wantEst := float64(wantCovered) / float64(sp.TotalSamples) * float64(g.NumVertices())
			if sp.EstimatedSpread != wantEst {
				t.Fatalf("s=%d spread aud=%v: estimate %v != %v", s, aud != nil, sp.EstimatedSpread, wantEst)
			}
		}
	}
}

// TestRouterServeQueryHonoursContext: a routed costs, audience or blocked
// query whose context is cancelled after its first seed runs no further
// shard round, returns the context's error and leaves no shard holding a
// session, and the next query is answered in full, byte-identically to a
// fresh SelectQuery.
func TestRouterServeQueryHonoursContext(t *testing.T) {
	g := testGraph(13, 100, 700)
	opt := cluster.BuildOptions{K: 8, Epsilon: 0.5, Model: diffuse.IC, Seed: 31, Workers: 2, Shards: 3}
	const k = 6
	costs, audience, blocked := queryTestInputs(g.NumVertices(), refQuery(t, g, opt, imm.Query{K: k}).Seeds)
	shards, err := cluster.BuildShards(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	fleet := startCommFleet(t, shards, mpi.FaultPlan{}, 2*time.Second)
	reg := metrics.NewRegistry()
	rt, err := cluster.NewRouter(fleet.conns, reg)
	if err != nil {
		t.Fatal(err)
	}
	rounds := reg.Counter("router/rounds")
	for name, q := range map[string]imm.Query{
		"costs":    {K: k, Costs: costs, Budget: 7},
		"audience": {K: k, Audience: audience},
		"blocked":  {K: k, Blocked: blocked},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		before, seeds := rounds.Value(), 0
		_, err := rt.ServeQuery(ctx, q, func(int, graph.Vertex, int64) {
			seeds++
			cancel()
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled query returned %v", name, err)
		}
		// Only the blocked vertices' purges ran before the first seed.
		if ran := rounds.Value() - before; seeds != 1 || ran != int64(len(q.Blocked)) {
			t.Fatalf("%s: %d seeds and %d rounds after the cancel, want 1 seed and %d rounds",
				name, seeds, ran, len(q.Blocked))
		}
		for i, sh := range shards {
			if open := sh.Sessions(); open != 0 {
				t.Fatalf("%s: shard %d holds %d sessions after the cancelled query", name, i, open)
			}
		}

		got, err := rt.ServeQuery(context.Background(), q, nil)
		if err != nil {
			t.Fatalf("%s: query after the cancel: %v", name, err)
		}
		want, err := rt.SelectQuery(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Seeds, want.Seeds) || !slices.Equal(got.Gains, want.Gains) ||
			got.Eligible != want.Eligible || got.SpentBudget != want.SpentBudget ||
			got.CoverageFraction != want.CoverageFraction || got.Rounds != want.Rounds {
			t.Fatalf("%s: after the cancel %+v, fresh %+v", name, got, want)
		}
	}
}

// TestRouterQueryFailover runs a filtered budgeted query under a
// deterministic kill plan: the query must finish degraded on the
// survivors, and the whole scenario must reproduce exactly.
func TestRouterQueryFailover(t *testing.T) {
	g := testGraph(17, 90, 600)
	opt := cluster.BuildOptions{K: 8, Epsilon: 0.5, Model: diffuse.IC, Seed: 41, Workers: 2, Shards: 4}
	const netTimeout = 500 * time.Millisecond
	var audience []graph.Vertex
	for v := 0; v < g.NumVertices(); v += 2 {
		audience = append(audience, graph.Vertex(v))
	}
	q := cluster.RouterQuery{K: 5, Budget: 5, Audience: audience}

	run := func(t *testing.T) *cluster.SelectResult {
		t.Helper()
		shards, err := cluster.BuildShards(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Shard 2 (rank 3) answers info, the filtered start and the first
		// purge, then dies on the second purge's reply.
		plan := mpi.FaultPlan{Seed: 1, Crashes: []mpi.RankCrash{{Rank: 3, AfterSends: 3}}}
		fleet := startCommFleet(t, shards, plan, netTimeout)
		reg := metrics.NewRegistry()
		rt, err := cluster.NewRouter(fleet.conns, reg)
		if err != nil {
			t.Fatal(err)
		}
		if failed := rt.FailedShards(); len(failed) != 0 {
			t.Fatalf("shards %v failed before the query; the kill must land inside it", failed)
		}
		start := time.Now()
		res, err := rt.SelectQuery(q, nil)
		if err != nil {
			t.Fatalf("degraded query must still answer: %v", err)
		}
		if elapsed := time.Since(start); elapsed > 10*netTimeout {
			t.Fatalf("query took %v with a %v net timeout", elapsed, netTimeout)
		}
		if n := reg.Counter("router/failovers").Value(); n != 1 {
			t.Fatalf("router/failovers = %d, want 1 restart-and-replay", n)
		}
		// The restart must close the survivors' sessions of the lost round.
		for i, sh := range shards {
			if n := sh.Sessions(); i != 2 && n != 0 {
				t.Fatalf("surviving shard %d holds %d sessions after the query", i, n)
			}
		}
		return res
	}

	res := run(t)
	if !res.Degraded || !slices.Equal(res.FailedShards, []int{2}) {
		t.Fatalf("want degraded with failedShards [2], got degraded=%v failed=%v", res.Degraded, res.FailedShards)
	}
	if len(res.Seeds) == 0 || res.SpentBudget > q.Budget {
		t.Fatalf("degraded result malformed: seeds %v spent %v", res.Seeds, res.SpentBudget)
	}
	res2 := run(t)
	if !slices.Equal(res2.Seeds, res.Seeds) || res2.Eligible != res.Eligible || res2.SpentBudget != res.SpentBudget {
		t.Fatalf("failover not deterministic: %+v vs %+v", res, res2)
	}
}

// dyingConn is a shard connection that goes down at its purgeAt-th purge
// (never when 0) — a replica dying mid-selection, at a chosen round — and
// stays down until the test clears down.
type dyingConn struct {
	cluster.Conn
	purgeAt, purges int
	down            bool
}

func (c *dyingConn) dead() error {
	return &mpi.RankFailedError{Rank: 2, Err: errors.New("replica down")}
}

func (c *dyingConn) Info() (cluster.ShardInfo, error) {
	if c.down {
		return cluster.ShardInfo{}, c.dead()
	}
	return c.Conn.Info()
}

func (c *dyingConn) Start(session uint64) ([]int64, error) {
	if c.down {
		return nil, c.dead()
	}
	return c.Conn.Start(session)
}

func (c *dyingConn) Purge(session uint64, v graph.Vertex) ([]cluster.DecPair, error) {
	if c.purges++; c.purges == c.purgeAt {
		c.down = true
	}
	if c.down {
		return nil, c.dead()
	}
	return c.Conn.Purge(session, v)
}

// trajectoryFleet is a 4-shard comm fleet whose shard 2 is a dyingConn,
// with the router's trajectory-build counter.
func trajectoryFleet(t *testing.T, purgeAt int) (*cluster.Router, *dyingConn, *metrics.Counter) {
	t.Helper()
	g := testGraph(3, 90, 650)
	shards, err := cluster.BuildShards(g, cluster.BuildOptions{K: 8, Epsilon: 0.5, Model: diffuse.IC, Seed: 11, Workers: 2, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	fleet := startCommFleet(t, shards, mpi.FaultPlan{}, 5*time.Second)
	dc := &dyingConn{Conn: fleet.conns[2], purgeAt: purgeAt}
	fleet.conns[2] = dc
	reg := metrics.NewRegistry()
	rt, err := cluster.NewRouter(fleet.conns, reg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, dc, reg.Counter("router/trajectory-builds")
}

// checkPlain serves k plain seeds and holds them against the memo-free
// SelectQuery over the same live slots, the failed slots and the rounds
// the served answer cost.
func checkPlain(t *testing.T, rt *cluster.Router, k int, failed []int, rounds int) {
	t.Helper()
	got, err := rt.ServeQuery(context.Background(), cluster.RouterQuery{K: k}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rt.SelectQuery(cluster.RouterQuery{K: k}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Seeds, want.Seeds) || !slices.Equal(got.Gains, want.Gains) || got.CoverageFraction != want.CoverageFraction {
		t.Fatalf("k=%d: served %v %v, the live slots' greedy %v %v", k, got.Seeds, got.Gains, want.Seeds, want.Gains)
	}
	if !slices.Equal(got.FailedShards, failed) || got.Rounds != rounds {
		t.Fatalf("k=%d: failed %v rounds %d, want %v and %d", k, got.FailedShards, got.Rounds, failed, rounds)
	}
}

// TestRouterTrajectoryAfterFailover: a trajectory build that loses a
// shard mid-run answers its own query degraded but is not kept, since its
// committed prefix was chosen over samples that did not all survive. The
// next plain query builds over the survivors from scratch and is their
// exact greedy answer, and later ones reuse that build.
func TestRouterTrajectoryAfterFailover(t *testing.T) {
	rt, _, builds := trajectoryFleet(t, 3)
	first, err := rt.ServeQuery(context.Background(), cluster.RouterQuery{K: 6}, nil)
	if err != nil || !slices.Equal(first.FailedShards, []int{2}) || first.Rounds <= 8 || builds.Value() != 1 {
		t.Fatalf("failover build: %+v, %d builds, %v; want shard 2 lost at round 3 and a replay", first, builds.Value(), err)
	}
	checkPlain(t, rt, 6, []int{2}, 8)
	checkPlain(t, rt, 8, []int{2}, 0)
	checkPlain(t, rt, 3, []int{2}, 0)
	if builds.Value() != 2 {
		t.Fatalf("%d trajectory builds, want the failover build plus one over the survivors", builds.Value())
	}
}

// TestRouterTrajectoryFollowsLiveSlots: the memo is keyed by the slots
// that built it. A memo hit contacts no shard, so it does not notice a
// death; a query that runs rounds does, and the next plain query rebuilds
// over the survivors. The shard's rejoin makes the one after that rebuild
// over the whole fleet again.
func TestRouterTrajectoryFollowsLiveSlots(t *testing.T) {
	rt, dc, builds := trajectoryFleet(t, 0)
	checkPlain(t, rt, 5, nil, 8)
	checkPlain(t, rt, 7, nil, 0)
	dc.down = true
	if res, err := rt.ServeQuery(context.Background(), cluster.RouterQuery{K: 7}, nil); err != nil || res.Degraded || res.Rounds != 0 {
		t.Fatalf("a memo hit with shard 2 down: %+v, %v; want the full fleet's answer, no rounds", res, err)
	}
	if res, err := rt.SelectQuery(cluster.RouterQuery{K: 4, Blocked: []graph.Vertex{0}}, nil); err != nil || !res.Degraded {
		t.Fatalf("the blocked query must notice shard 2's death: %+v, %v", res, err)
	}
	checkPlain(t, rt, 5, []int{2}, 8)
	checkPlain(t, rt, 7, []int{2}, 0)
	dc.down = false
	time.Sleep(time.Second) // the rejoin probe's rate limit
	checkPlain(t, rt, 5, nil, 8)
	checkPlain(t, rt, 7, nil, 0)
	if builds.Value() != 3 {
		t.Fatalf("%d trajectory builds, want one per live slot set", builds.Value())
	}
}

// TestRouterFilteredNeedsRoots: a shard without a root column (a v1
// snapshot) refuses audience-filtered work with an in-band error — the
// router aborts that query without marking the shard failed, and plain
// queries keep serving the full fleet.
func TestRouterFilteredNeedsRoots(t *testing.T) {
	g := testGraph(19, 60, 400)
	opt := cluster.BuildOptions{K: 5, Epsilon: 0.5, Model: diffuse.IC, Seed: 7, Workers: 2, Shards: 3}
	shards, err := cluster.BuildShards(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	shards[1].Roots = nil // simulate a warm restart from a v1 snapshot
	fleet := startCommFleet(t, shards, mpi.FaultPlan{}, 2*time.Second)
	rt, err := cluster.NewRouter(fleet.conns, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SelectQuery(cluster.RouterQuery{K: 3, Audience: []graph.Vertex{1, 2, 3}}, nil); err == nil {
		t.Fatal("audience query served without sample roots")
	}
	if _, err := rt.Spread([]graph.Vertex{1}, []graph.Vertex{2}); err == nil {
		t.Fatal("audience spread served without sample roots")
	}
	// The rootless shard is healthy, not failed: plain selection and
	// unrestricted spread still run over the whole fleet.
	res, err := rt.Select(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.TotalSamples != res.Theta {
		t.Fatalf("in-band refusal degraded the fleet: %+v", res)
	}
	if _, err := rt.Spread([]graph.Vertex{1}, nil); err != nil {
		t.Fatalf("unrestricted spread: %v", err)
	}
}

// TestRouterServerQueryEndpoints drives the extended /v1/seeds fields and
// the /v1/spread endpoint over HTTP, including the error paths.
func TestRouterServerQueryEndpoints(t *testing.T) {
	g := testGraph(23, 70, 450)
	opt := cluster.BuildOptions{K: 6, Epsilon: 0.5, Model: diffuse.IC, Seed: 29, Workers: 2, Shards: 2}
	const k = 4
	want := refQuery(t, g, opt, imm.Query{K: k, Budget: 3})
	shards, err := cluster.BuildShards(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	fleet := startCommFleet(t, shards, mpi.FaultPlan{}, 2*time.Second)
	rt, err := cluster.NewRouter(fleet.conns, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs := cluster.NewRouterServer(rt, cluster.RouterServerConfig{})
	srv := httptest.NewServer(rs.Handler())
	defer srv.Close()

	// Budgeted seeds: eligible/spentBudget extras present and correct.
	resp, err := http.Post(srv.URL+"/v1/seeds", "application/json", strings.NewReader(`{"k":4,"budget":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var seedsResp struct {
		Seeds       []graph.Vertex `json:"seeds"`
		Gains       []int64        `json:"gains"`
		Eligible    int64          `json:"eligible"`
		SpentBudget float64        `json:"spentBudget"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&seedsResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !slices.Equal(seedsResp.Seeds, want.Seeds) {
		t.Fatalf("budgeted seeds: status %d, %v (want %v)", resp.StatusCode, seedsResp.Seeds, want.Seeds)
	}
	if !slices.Equal(seedsResp.Gains, want.Gains) || seedsResp.SpentBudget != want.SpentBudget || seedsResp.Eligible != want.Eligible {
		t.Fatalf("budgeted extras: %+v vs %+v", seedsResp, want)
	}

	// Spread endpoint against the routed Spread.
	wantSp, err := rt.Spread(want.Seeds, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(struct {
		Seeds []graph.Vertex `json:"seeds"`
	}{want.Seeds})
	resp, err = http.Post(srv.URL+"/v1/spread", "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var spreadResp struct {
		Covered         int64   `json:"covered"`
		Eligible        int64   `json:"eligible"`
		EstimatedSpread float64 `json:"estimatedSpread"`
		Shards          int     `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&spreadResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || spreadResp.Covered != wantSp.Covered ||
		spreadResp.Eligible != wantSp.Eligible || spreadResp.EstimatedSpread != wantSp.EstimatedSpread ||
		spreadResp.Shards != 2 {
		t.Fatalf("spread response: status %d, %+v (want %+v)", resp.StatusCode, spreadResp, wantSp)
	}

	// Error paths: malformed JSON, empty seeds, out-of-range vertices and
	// invalid query parameterizations must all answer 400.
	for _, tc := range []struct{ path, body string }{
		{"/v1/spread", `{"seeds":`},
		{"/v1/spread", `{"seeds":[]}`},
		{"/v1/spread", `{"seeds":[99999]}`},
		{"/v1/spread", `{"seeds":[1],"audience":[99999]}`},
		{"/v1/seeds", `{"k":4,"costs":[1,2]}`},
		{"/v1/seeds", `{"k":4,"budget":-1}`},
		{"/v1/seeds", `{"k":4,"audience":[99999]}`},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
}
