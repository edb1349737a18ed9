package cluster_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"influmax/internal/cluster"
	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
	"influmax/internal/mpi"
	"influmax/internal/par"
	"influmax/internal/rng"
)

func testGraph(seed uint64, n, m int) *graph.Graph {
	r := rng.New(rng.NewLCG(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			b.Add(graph.Vertex(u), graph.Vertex(v), 0)
		}
	}
	g := b.Build()
	g.AssignUniform(seed ^ 0xbeef)
	return g
}

// refSeeds runs the single-process pipeline at the fleet configuration
// and selects k seeds — the byte-identity oracle for every fleet test.
func refSeeds(t *testing.T, g *graph.Graph, opt cluster.BuildOptions, k int) ([]graph.Vertex, int64, int64) {
	t.Helper()
	res, coded, idx, err := imm.RunSketch(g, imm.Options{
		K: opt.K, Epsilon: opt.Epsilon, Model: opt.Model, Seed: opt.Seed, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	seeds, covered := imm.SelectSeedsSketch(coded, idx, k, 2)
	return seeds, covered, res.Theta
}

// commFleet wires shards to a router over an in-process communicator:
// rank 0 is the router, rank i+1 serves shard i. An active plan decorates
// every endpoint, the router's included, with fault injection: the
// injector frames each message with a sequence number, so both ends of a
// channel must be wrapped. Its crashes name ranks, shard i being rank i+1.
type commFleet struct {
	comms []mpi.Comm
	conns []cluster.Conn
	done  sync.WaitGroup
}

func startCommFleet(t *testing.T, shards []*cluster.Shard, plan mpi.FaultPlan, timeout time.Duration) *commFleet {
	t.Helper()
	f := &commFleet{comms: mpi.NewLocalCluster(len(shards) + 1)}
	for r, c := range f.comms {
		f.comms[r] = mpi.WithFaults(c, plan)
	}
	for i, sh := range shards {
		f.done.Add(1)
		go func(c mpi.Comm, sh *cluster.Shard) {
			defer f.done.Done()
			cluster.ServeComm(c, 0, sh)
		}(f.comms[i+1], sh)
		f.conns = append(f.conns, cluster.NewCommConn(f.comms[0], i+1, i, timeout))
	}
	t.Cleanup(func() {
		for _, c := range f.comms {
			c.Close()
		}
		f.done.Wait()
	})
	return f
}

func TestRouterMatchesSingleProcess(t *testing.T) {
	g := testGraph(1, 100, 700)
	opt := cluster.BuildOptions{K: 8, Epsilon: 0.5, Model: diffuse.IC, Seed: 17, Workers: 2}
	const k = 6
	wantSeeds, wantCovered, wantTheta := refSeeds(t, g, opt, k)

	for _, s := range []int{1, 2, 3, 5} {
		opt.Shards = s
		shards, err := cluster.BuildShards(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		var total int
		for _, sh := range shards {
			total += sh.Col.Count()
		}
		if int64(total) != wantTheta {
			t.Fatalf("s=%d: shards hold %d samples, single process holds theta = %d", s, total, wantTheta)
		}
		fleet := startCommFleet(t, shards, mpi.FaultPlan{}, 2*time.Second)
		rt, err := cluster.NewRouter(fleet.conns, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Select(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Seeds, wantSeeds) {
			t.Fatalf("s=%d: router seeds %v != single-process %v", s, res.Seeds, wantSeeds)
		}
		if res.Degraded || len(res.FailedShards) != 0 {
			t.Fatalf("s=%d: clean fleet reported degraded (%v)", s, res.FailedShards)
		}
		if res.Theta != wantTheta {
			t.Fatalf("s=%d: theta %d != %d", s, res.Theta, wantTheta)
		}
		if res.TotalSamples != wantTheta {
			t.Fatalf("s=%d: totalSamples %d != theta %d", s, res.TotalSamples, wantTheta)
		}
		wantCov := float64(wantCovered) / float64(wantTheta)
		if res.CoverageFraction != wantCov {
			t.Fatalf("s=%d: coverage %v != %v", s, res.CoverageFraction, wantCov)
		}
		// Shards keep no per-query state once the router ends the session.
		for i, sh := range shards {
			if n := sh.Sessions(); n != 0 {
				t.Fatalf("s=%d: shard %d holds %d sessions after the query", s, i, n)
			}
		}
	}
}

// TestRouterFailover pins the degraded path deterministically: a fleet of
// 4 shards under a WithFaults kill plan, shard 2 dying after a fixed
// number of responses. The seeds selected before the kill must be
// byte-identical to the single-process run; the query must complete
// degraded (listing the failed shard) within the net timeout rather than
// hang; and the whole scenario must reproduce exactly.
func TestRouterFailover(t *testing.T) {
	g := testGraph(3, 90, 650)
	opt := cluster.BuildOptions{K: 8, Epsilon: 0.5, Model: diffuse.IC, Seed: 11, Workers: 2, Shards: 4}
	const k = 6
	const netTimeout = 500 * time.Millisecond
	wantSeeds, _, _ := refSeeds(t, g, opt, k)

	run := func(t *testing.T) *cluster.SelectResult {
		t.Helper()
		shards, err := cluster.BuildShards(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Shard 2 (rank 3) dies after 3 responses: info, session counts,
		// purge of seed 1. The purge for seed 2 is the send that crashes,
		// so seeds[0:2] are committed pre-kill.
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
		res, err := rt.Select(k, nil)
		if err != nil {
			t.Fatalf("degraded query must still answer: %v", err)
		}
		// The router pays at most a couple of timeouts (the failed purge
		// plus session-end cleanup); anything near the test's 10s budget
		// would mean a hang.
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
	if len(res.Seeds) != k {
		t.Fatalf("degraded query returned %d seeds, want %d", len(res.Seeds), k)
	}
	if !slices.Equal(res.Seeds[:2], wantSeeds[:2]) {
		t.Fatalf("pre-kill seeds %v != single-process prefix %v", res.Seeds[:2], wantSeeds[:2])
	}
	// Deterministic: the same kill plan reproduces the same degraded
	// result, seeds and all.
	res2 := run(t)
	if !slices.Equal(res2.Seeds, res.Seeds) || res2.CoverageFraction != res.CoverageFraction {
		t.Fatalf("failover not deterministic: %v (%v) vs %v (%v)",
			res.Seeds, res.CoverageFraction, res2.Seeds, res2.CoverageFraction)
	}
}

// TestRouterFailoverAtSessionStart kills a shard before it can answer the
// first session: the query proceeds on the survivors from round one.
func TestRouterFailoverAtSessionStart(t *testing.T) {
	g := testGraph(5, 80, 500)
	opt := cluster.BuildOptions{K: 5, Epsilon: 0.5, Model: diffuse.IC, Seed: 23, Workers: 2, Shards: 3}
	shards, err := cluster.BuildShards(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	plan := mpi.FaultPlan{Seed: 2, Crashes: []mpi.RankCrash{{Rank: 2, AfterSends: 1}}} // shard 1 dies after info
	fleet := startCommFleet(t, shards, plan, 300*time.Millisecond)
	rt, err := cluster.NewRouter(fleet.conns, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Select(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || !slices.Equal(res.FailedShards, []int{1}) {
		t.Fatalf("want failedShards [1], got %v", res.FailedShards)
	}
	if len(res.Seeds) != 4 {
		t.Fatalf("got %d seeds, want 4", len(res.Seeds))
	}
	var wantTotal int64
	wantTotal += int64(shards[0].Col.Count() + shards[2].Col.Count())
	if res.TotalSamples != wantTotal {
		t.Fatalf("totalSamples %d, want survivors' %d", res.TotalSamples, wantTotal)
	}
}

func TestShardSnapshotRoundTrip(t *testing.T) {
	g := testGraph(7, 60, 400)
	opt := cluster.BuildOptions{K: 5, Epsilon: 0.5, Model: diffuse.IC, Seed: 3, Workers: 2, Shards: 2}
	shards, err := cluster.BuildShards(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard1.snap")
	if err := cluster.SaveShardSnapshotFile(path, shards[1]); err != nil {
		t.Fatal(err)
	}
	got, err := cluster.LoadShardSnapshotFile(path, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Info() != shards[1].Info() {
		t.Fatalf("loaded shard info %+v != %+v", got.Info(), shards[1].Info())
	}
	// The header carries the first id, from which the reload re-derives
	// the same root column.
	if got.First != shards[1].First || !slices.Equal(got.Roots, shards[1].Roots) {
		t.Fatalf("reloaded shard: first id %d, %d roots; built: first id %d, %d roots (or the roots differ)",
			got.First, len(got.Roots), shards[1].First, len(shards[1].Roots))
	}
	// The reloaded shard must serve the same counts and purges.
	a, b := shards[1].Start(1), got.Start(1)
	if !slices.Equal(a, b) {
		t.Fatal("reloaded shard serves different counts")
	}
	seed := graph.Vertex(0)
	for v := range a {
		if a[v] > a[seed] {
			seed = graph.Vertex(v)
		}
	}
	pa, errA := shards[1].Purge(1, seed)
	pb, errB := got.Purge(1, seed)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !slices.Equal(pa, pb) {
		t.Fatal("reloaded shard serves different purge decrements")
	}

	// Corruption anywhere in the payload must be rejected, not served.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if _, err := cluster.ReadShardSnapshot(bytes.NewReader(raw), 0, 2); err == nil {
		t.Fatal("corrupted shard snapshot loaded without error")
	}
	if _, err := cluster.ReadShardSnapshot(strings.NewReader("not a snapshot"), 0, 2); err == nil {
		t.Fatal("garbage accepted as shard snapshot")
	}
}

// TestShardSnapshotRejectsHeaderV1: the pre-roots shard header (v1) and
// the root-column header over interleaved rank slices (v2) are refused
// with an error that tells the operator to rebuild, not loaded.
func TestShardSnapshotRejectsHeaderV1(t *testing.T) {
	g := testGraph(9, 50, 300)
	shards, err := cluster.BuildShards(g, cluster.BuildOptions{K: 4, Epsilon: 0.5, Model: diffuse.IC, Seed: 5, Workers: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cluster.WriteShardSnapshot(&buf, shards[0]); err != nil {
		t.Fatal(err)
	}
	for _, version := range []byte{1, 2} {
		raw := bytes.Clone(buf.Bytes())
		raw[7] = version // header version byte
		_, err = cluster.ReadShardSnapshot(bytes.NewReader(raw), 0, 2)
		if err == nil || !strings.Contains(err.Error(), "rebuild") {
			t.Fatalf("header v%d shard snapshot: got %v, want a rebuild error", version, err)
		}
	}
}

// TestBuildShardsTileOneDraw pins what a shard is: shard r of a width-S
// build holds exactly ids par.Interval(N, S, r) of the sample set
// imm.RunCollect draws at the same options, the ranges tile [0, N), each
// shard's roots are RootsRange over its range, and the build does not
// depend on its worker budget.
func TestBuildShardsTileOneDraw(t *testing.T) {
	g := testGraph(13, 90, 600)
	opt := cluster.BuildOptions{K: 6, Epsilon: 0.5, Model: diffuse.IC, Seed: 21}
	_, col, _, err := imm.RunCollect(g, imm.Options{
		K: opt.K, Epsilon: opt.Epsilon, Model: opt.Model, Seed: opt.Seed, Workers: 2, RNG: imm.PerSample,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, total := g.NumVertices(), col.Count()
	snapshot := func(sh *cluster.Shard) []byte {
		var buf bytes.Buffer
		if err := cluster.WriteShardSnapshot(&buf, sh); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, s := range []int{1, 2, 3, 5} {
		opt.Shards = s
		builds := make([][]*cluster.Shard, 2)
		for i, w := range []int{1, 4} {
			opt.Workers = w
			if builds[i], err = cluster.BuildShards(g, opt); err != nil {
				t.Fatal(err)
			}
		}
		next := 0
		var buf []graph.Vertex
		for r, sh := range builds[0] {
			lo, hi := par.Interval(total, s, r)
			if lo != next || sh.First != uint64(lo) || sh.Col.Count() != hi-lo {
				t.Fatalf("s=%d shard %d: first id %d, %d samples; want ids [%d, %d) after %d",
					s, r, sh.First, sh.Col.Count(), lo, hi, next)
			}
			next = hi
			for j := 0; j < sh.Col.Count(); j++ {
				buf = sh.Col.SampleSorted(j, buf)
				if !slices.Equal(buf, col.Sample(lo+j)) {
					t.Fatalf("s=%d shard %d: local sample %d = %v, global sample %d = %v",
						s, r, j, buf, lo+j, col.Sample(lo+j))
				}
			}
			if want := imm.RootsRange(opt.Seed, uint64(lo), hi-lo, n, 2); !slices.Equal(sh.Roots, want) {
				t.Fatalf("s=%d shard %d: roots differ from RootsRange over [%d, %d)", s, r, lo, hi)
			}
			if !bytes.Equal(snapshot(sh), snapshot(builds[1][r])) {
				t.Fatalf("s=%d shard %d: builds at 1 and 4 workers differ", s, r)
			}
		}
		if next != total {
			t.Fatalf("s=%d: shards cover [0, %d) of %d samples", s, next, total)
		}
	}
}

// TestBuildShardMatchesBuildShards: a replica that builds only its own
// shard gets, as a snapshot, exactly the shard the whole-fleet build cuts
// at that index, at any width and worker count, and learns the draw's
// sample count N its range is taken from.
func TestBuildShardMatchesBuildShards(t *testing.T) {
	g := testGraph(13, 90, 600)
	opt := cluster.BuildOptions{K: 6, Epsilon: 0.5, Model: diffuse.IC, Seed: 21}
	snapshot := func(sh *cluster.Shard) []byte {
		var buf bytes.Buffer
		if err := cluster.WriteShardSnapshot(&buf, sh); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, w := range []int{1, 4} {
		opt.Workers = w
		for _, s := range []int{1, 2, 3, 5} {
			opt.Shards = s
			fleet, err := cluster.BuildShards(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, sh := range fleet {
				total += sh.Col.Count()
			}
			for r, want := range fleet {
				got, n, err := cluster.BuildShard(g, opt, r)
				if err != nil {
					t.Fatal(err)
				}
				if n != total {
					t.Fatalf("w=%d s=%d shard %d: N = %d, fleet holds %d", w, s, r, n, total)
				}
				if !bytes.Equal(snapshot(got), snapshot(want)) {
					t.Fatalf("w=%d s=%d shard %d: BuildShard differs from BuildShards[%d]", w, s, r, r)
				}
			}
			for _, r := range []int{-1, s} {
				if _, _, err := cluster.BuildShard(g, opt, r); err == nil {
					t.Fatalf("w=%d s=%d: BuildShard accepted index %d", w, s, r)
				}
			}
		}
	}
}

// TestShardIndexCutFromDraw: a shard's index is cut from the draw's, and
// equals the index built over the shard's own coded samples, for the
// whole-fleet build and the single-replica build alike.
func TestShardIndexCutFromDraw(t *testing.T) {
	g := testGraph(13, 90, 600)
	opt := cluster.BuildOptions{K: 6, Epsilon: 0.5, Model: diffuse.IC, Seed: 21, Workers: 2}
	snapshot := func(sh *cluster.Shard) []byte {
		var buf bytes.Buffer
		if err := cluster.WriteShardSnapshot(&buf, sh); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, s := range []int{1, 3} {
		opt.Shards = s
		fleet, err := cluster.BuildShards(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		for r, sh := range fleet {
			one, _, err := cluster.BuildShard(g, opt, r)
			if err != nil {
				t.Fatal(err)
			}
			// A nil index makes NewShard build one over the coded store.
			fresh, err := cluster.NewShard(sh.Meta, sh.Col, nil, r, s, sh.First, sh.Epoch, 1)
			if err != nil {
				t.Fatal(err)
			}
			if want := snapshot(fresh); !bytes.Equal(snapshot(sh), want) || !bytes.Equal(snapshot(one), want) {
				t.Fatalf("s=%d shard %d: the cut index differs from a fresh build", s, r)
			}
		}
	}
}

func TestFetchShardSnapshot(t *testing.T) {
	g := testGraph(9, 50, 300)
	opt := cluster.BuildOptions{K: 4, Epsilon: 0.5, Model: diffuse.IC, Seed: 5, Workers: 2, Shards: 2}
	shards, err := cluster.BuildShards(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/snapshot", shards[0].ServeSnapshot)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	got, err := cluster.FetchShardSnapshot(srv.URL, srv.Client(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Info() != shards[0].Info() {
		t.Fatalf("fetched shard info %+v != %+v", got.Info(), shards[0].Info())
	}
}

// TestRouterServerStreamAndSummary exercises the HTTP front over a comm
// fleet: the non-streaming response carries the full result, and the
// NDJSON streaming mode delivers one line per seed before the summary.
func TestRouterServerStreamAndSummary(t *testing.T) {
	g := testGraph(11, 70, 450)
	opt := cluster.BuildOptions{K: 5, Epsilon: 0.5, Model: diffuse.IC, Seed: 29, Workers: 2, Shards: 2}
	wantSeeds, _, _ := refSeeds(t, g, opt, 5)
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

	resp, err := http.Post(srv.URL+"/v1/seeds", "application/json", strings.NewReader(`{"k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	var plain struct {
		Seeds        []graph.Vertex `json:"seeds"`
		Degraded     bool           `json:"degraded"`
		FailedShards []int          `json:"failedShards"`
		Shards       int            `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&plain); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !slices.Equal(plain.Seeds, wantSeeds) || plain.Shards != 2 || plain.Degraded {
		t.Fatalf("plain response: status %d, %+v (want seeds %v)", resp.StatusCode, plain, wantSeeds)
	}

	resp, err = http.Post(srv.URL+"/v1/seeds", "application/json", strings.NewReader(`{"k":5,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var streamed []graph.Vertex
	var sawSummary bool
	for sc.Scan() {
		line := sc.Bytes()
		var seedLine struct {
			Seed  *graph.Vertex  `json:"seed"`
			Seeds []graph.Vertex `json:"seeds"`
		}
		if err := json.Unmarshal(line, &seedLine); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case seedLine.Seed != nil:
			streamed = append(streamed, *seedLine.Seed)
		case seedLine.Seeds != nil:
			sawSummary = true
			if !slices.Equal(seedLine.Seeds, wantSeeds) {
				t.Fatalf("summary seeds %v != %v", seedLine.Seeds, wantSeeds)
			}
		}
	}
	if !slices.Equal(streamed, wantSeeds) {
		t.Fatalf("streamed seeds %v != %v", streamed, wantSeeds)
	}
	if !sawSummary {
		t.Fatal("stream ended without a summary line")
	}

	// healthz and metrics answer.
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, hr)
	}
	hr.Body.Close()
	mr, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil || mr.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %v %v", err, mr)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(mr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if snap.Counters["router/queries"] != 2 {
		t.Fatalf("router/queries = %d, want 2", snap.Counters["router/queries"])
	}
}
