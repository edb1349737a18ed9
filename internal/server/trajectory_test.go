package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"influmax/internal/cluster"
	"influmax/internal/diffuse"
	"influmax/internal/front"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
	"influmax/internal/mpi"
)

// TestTrajectoryBuildsOncePerEpoch pins the memo's cost: 32 concurrent
// plain queries on a fresh sketch run one trajectory between them, and in
// dynamic mode every published epoch runs exactly one — M delta batches
// with reads in between make M+1 — while non-prefix queries run none.
func TestTrajectoryBuildsOncePerEpoch(t *testing.T) {
	g := testGraph(7, 150, 900)
	cfg := testConfig(g)
	cfg.KMax = 20
	cfg.MaxConcurrent, cfg.MaxQueue = 4, 64
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	got := make([][]graph.Vertex, 32)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, resp := postSeeds(t, ts.Client(), ts.URL, fmt.Sprintf(`{"k":%d}`, 1+i%cfg.KMax))
			if status != http.StatusOK {
				t.Errorf("query %d: status %d", i, status)
			}
			got[i] = resp.Seeds
		}(i)
	}
	wg.Wait()
	if n := s.mTrajBuilds.Value(); n != 1 {
		t.Fatalf("32 concurrent plain queries ran %d trajectories, want 1", n)
	}
	sk, _, err := s.sketchFor(context.Background(), s.DefaultKey())
	if err != nil {
		t.Fatal(err)
	}
	for i, seeds := range got {
		if want, _ := sk.Query(1+i%cfg.KMax, cfg.Workers); !slices.Equal(seeds, want) {
			t.Fatalf("query %d: served %v, reference %v", i, seeds, want)
		}
	}

	dyn, err := New(dynConfig(g))
	if err != nil {
		t.Fatal(err)
	}
	dts := httptest.NewServer(dyn.Handler())
	defer dts.Close()
	read := func() {
		t.Helper()
		for _, body := range []string{`{"k":3}`, `{"k":9,"budget":4.5}`, `{"k":5,"blocked":[0]}`, `{"k":7}`} {
			if status, _, _ := postSeeds(t, dts.Client(), dts.URL, body); status != http.StatusOK {
				t.Fatalf("%s: status %d", body, status)
			}
		}
	}
	const batches = 5
	read()
	abs := absentEdges(t, g, batches)
	for b := range abs {
		abs[b].W = 0.5
		if status, _, raw := postDelta(t, dts.Client(), dts.URL, opsJSON(graph.Delta{abs[b]})); status != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", b, status, raw)
		}
		read()
	}
	if n := dyn.mTrajBuilds.Value(); n != batches+1 {
		t.Fatalf("%d epochs read ran %d trajectories, want one each", batches+1, n)
	}
}

// servedWant is what a /v1/seeds answer must carry.
type servedWant struct {
	seeds    []graph.Vertex
	gains    []int64
	eligible int64
	spent    float64
	coverage float64
}

// wantOf is the reference answer of a local selection over count samples.
func wantOf(qr *imm.QueryResult, count int) servedWant {
	return servedWant{qr.Seeds, qr.Gains, qr.Eligible, qr.SpentBudget, float64(qr.Covered) / float64(count)}
}

// trajectoryQueries is every plain k up to kMax, budget-only queries at
// the rule's edge budgets (below one seed, one, fractional, past K), and
// one query of each shape the trajectory must hand to Greedy.
func trajectoryQueries(n, kMax int) []imm.Query {
	var qs []imm.Query
	for k := 1; k <= kMax; k++ {
		qs = append(qs, imm.Query{K: k})
	}
	for _, k := range []int{1, kMax / 2, kMax} {
		for _, b := range []float64{0.5, 1, 5.5, 1e308} {
			qs = append(qs, imm.Query{K: k, Budget: b})
		}
	}
	costs := make([]float64, n)
	for v := range costs {
		costs[v] = float64(1 + v%3)
	}
	return append(qs,
		imm.Query{K: kMax, Budget: 12, Costs: costs},
		imm.Query{K: kMax, Audience: []graph.Vertex{0, 2, 4, 6, 8, 10, 12}},
		imm.Query{K: kMax, Blocked: []graph.Vertex{1, 3}})
}

// checkServed sends every q to url as a streamed /v1/seeds request and
// holds the seed lines and the summary against want(q): seeds, gains,
// coverage, and — on answers that carry them — eligible and spent budget.
func checkServed(t *testing.T, label, url string, qs []imm.Query, want func(imm.Query) servedWant) {
	t.Helper()
	for _, q := range qs {
		body, _ := json.Marshal(front.SeedsRequest{K: q.K, Costs: q.Costs, Budget: &q.Budget,
			Audience: &q.Audience, Blocked: &q.Blocked, Stream: true})
		resp, err := http.Post(url+"/v1/seeds", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<22)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(lines) == 0 {
			t.Fatalf("%s %+v: status %d, %d lines", label, q, resp.StatusCode, len(lines))
		}
		w := want(q)
		var sum seedsResponse
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("%s %+v: summary %q: %v", label, q, lines[len(lines)-1], err)
		}
		var streamedGains []int64
		for i, line := range lines[:len(lines)-1] {
			var ss front.StreamedSeed
			if err := json.Unmarshal([]byte(line), &ss); err != nil || ss.Index != i || i >= len(w.seeds) || ss.Seed != w.seeds[i] {
				t.Fatalf("%s %+v: line %d %q, want seed %v (%v)", label, q, i, line, w.seeds, err)
			}
			streamedGains = append(streamedGains, ss.Gain)
		}
		if !slices.Equal(sum.Seeds, w.seeds) || !slices.Equal(streamedGains, w.gains) || sum.CoverageFraction != w.coverage {
			t.Fatalf("%s %+v:\n served seeds %v streamed gains %v coverage %v\n want   seeds %v gains %v coverage %v",
				label, q, sum.Seeds, streamedGains, sum.CoverageFraction, w.seeds, w.gains, w.coverage)
		}
		if !q.Plain() && (!slices.Equal(sum.Gains, w.gains) || sum.Eligible != w.eligible || sum.SpentBudget != w.spent) {
			t.Fatalf("%s %+v: served gains %v eligible %d spent %v, want %v %d %v",
				label, q, sum.Gains, sum.Eligible, sum.SpentBudget, w.gains, w.eligible, w.spent)
		}
	}
}

// TestSparseSketchServesRecounted: on a sketch whose samples are small
// next to n (imm.PreferRecount), the trajectory and every query without
// an audience run on the recounting backend. What the front serves must
// be what the decrementing imm.SelectQuerySketch selects over the same
// samples, for every shape trajectoryQueries sends.
func TestSparseSketchServesRecounted(t *testing.T) {
	g := testGraph(7, 20000, 30000)
	g.AssignWeightedCascade()
	cfg := testConfig(g)
	cfg.KMax, cfg.Store = 20, imm.StoreCoded
	key := SketchKey{GraphDigest: g.Digest(), Model: cfg.Model, Epsilon: cfg.Epsilon, KMax: cfg.KMax, Seed: cfg.Seed}
	sk, err := BuildSketch(g, key, cfg.Workers, cfg.Store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sk.coverage(nil, cfg.Workers).(*imm.IndexCoverage); !ok {
		t.Fatalf("a plain query on a sparse sketch (%d entries in %d samples over %d vertices) does not recount",
			sk.Idx.Entries(), sk.Idx.Count(), g.NumVertices())
	}
	if _, ok := sk.coverage([]graph.Vertex{0}, cfg.Workers).(*imm.CodedCoverage); !ok {
		t.Fatal("an audience query recounts")
	}
	cfg.Sketch = sk
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	checkServed(t, "sparse", ts.URL, trajectoryQueries(g.NumVertices(), cfg.KMax), func(q imm.Query) servedWant {
		qr, err := imm.SelectQuerySketch(sk.Col, sk.Idx, sk.Roots(), q, cfg.Workers)
		if err != nil {
			t.Fatal(err)
		}
		return wantOf(qr, sk.Col.Count())
	})
}

// TestPrefixAnswersMatchGreedy holds trajectory-served answers against
// memo-free Greedy over the same samples, through the front on both
// backends: immserve under either store, from a snapshot and after each
// of 20 delta batches (reference Sketch.QueryEx), and the router at
// widths 1, 2 and 3 (reference: the single process) and over a degraded
// fleet (reference: the same fleet's memo-free Router.SelectQuery). kMax
// is every vertex, so the long answers pad with zero-gain seeds.
func TestPrefixAnswersMatchGreedy(t *testing.T) {
	g := testGraph(31, 40, 120)
	n := g.NumVertices()
	cfg := Config{Graph: g, Model: diffuse.IC, Epsilon: 0.5, KMax: n, Seed: 5, Workers: 2, MaxQueue: 64}
	qs := trajectoryQueries(n, cfg.KMax)
	key := SketchKey{GraphDigest: g.Digest(), Model: cfg.Model, Epsilon: cfg.Epsilon, KMax: cfg.KMax, Seed: cfg.Seed}
	ref, err := BuildSketch(g, key, cfg.Workers, imm.StoreFlat, nil)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := ref.QueryEx(imm.Query{K: n}, cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Gains[n-1] != 0 {
		t.Fatalf("gains %v: the graph must leave vertices without gain", qr.Gains)
	}
	localWant := func(sk *Sketch) func(imm.Query) servedWant {
		return func(q imm.Query) servedWant {
			qr, err := sk.QueryEx(q, cfg.Workers)
			if err != nil {
				t.Fatal(err)
			}
			return wantOf(qr, sk.Col.Count())
		}
	}
	serve := func(cfg Config) (*Server, string) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return s, ts.URL
	}

	for _, store := range []imm.StoreKind{imm.StoreFlat, imm.StoreCoded} {
		c := cfg
		c.Store = store
		_, url := serve(c)
		checkServed(t, "store "+store.String(), url, qs, localWant(ref))
	}
	path := filepath.Join(t.TempDir(), "sketch.snap")
	if err := ref.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSketch(path, g, cfg.Workers, imm.StoreCoded, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.Store, c.Sketch = imm.StoreCoded, loaded
	_, url := serve(c)
	checkServed(t, "snapshot", url, qs, localWant(loaded))

	c = cfg
	c.Dynamic = true
	dyn, url := serve(c)
	abs := absentEdges(t, g, 20)
	for b := range abs {
		abs[b].W = 0.7
		if status, _, raw := postDelta(t, http.DefaultClient, url, opsJSON(graph.Delta{abs[b]})); status != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", b, status, raw)
		}
		checkServed(t, fmt.Sprintf("dynamic epoch %d", b+1), url, qs, localWant(dyn.ServingSketch()))
	}

	// fleet serves width shards over a comm fleet; shard dead (if any)
	// never answers, so the router serves degraded from the start.
	fleet := func(width, dead int, timeout time.Duration) (*cluster.Router, string, *metrics.Registry) {
		shards, err := cluster.BuildShards(g, cluster.BuildOptions{
			K: cfg.KMax, Epsilon: cfg.Epsilon, Model: cfg.Model, Seed: cfg.Seed, Workers: 2, Shards: width,
		})
		if err != nil {
			t.Fatal(err)
		}
		comms := mpi.NewLocalCluster(width + 1)
		conns := make([]cluster.Conn, width)
		for i, sh := range shards {
			if i != dead {
				go cluster.ServeComm(comms[i+1], 0, sh)
			}
			conns[i] = cluster.NewCommConn(comms[0], i+1, i, timeout)
		}
		t.Cleanup(func() {
			for _, cm := range comms {
				cm.Close()
			}
		})
		reg := metrics.NewRegistry()
		rt, err := cluster.NewRouter(conns, reg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(cluster.NewRouterServer(rt, cluster.RouterServerConfig{MaxQueue: 64}).Handler())
		t.Cleanup(ts.Close)
		return rt, ts.URL, reg
	}
	for width := 1; width <= 3; width++ {
		_, url, reg := fleet(width, -1, 5*time.Second)
		checkServed(t, fmt.Sprintf("router width %d", width), url, qs, localWant(ref))
		if n := reg.Counter("router/trajectory-builds").Value(); n != 1 {
			t.Fatalf("width %d: %d trajectories, want 1", width, n)
		}
	}

	rt, url, reg := fleet(3, 1, 200*time.Millisecond)
	checkServed(t, "degraded router", url, qs, func(q imm.Query) servedWant {
		res, err := rt.SelectQuery(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return servedWant{res.Seeds, res.Gains, res.Eligible, res.SpentBudget, res.CoverageFraction}
	})
	_, _, sum := postSeeds(t, http.DefaultClient, url, `{"k":4}`)
	if sum.FleetSelection == nil || !sum.Degraded || !slices.Equal(sum.FailedShards, []int{1}) || sum.Rounds != 0 {
		t.Fatalf("degraded plain answer %+v: want failedShards [1] and 0 rounds from the trajectory", sum.FleetSelection)
	}
	if n := reg.Counter("router/trajectory-builds").Value(); n != 1 {
		t.Fatalf("degraded fleet ran %d trajectories, want 1", n)
	}
}
