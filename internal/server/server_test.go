package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
	"influmax/internal/rng"
	"influmax/internal/rrr"
	"influmax/internal/trace"
)

// testGraph builds a small random digraph with uniform IC weights, same
// recipe as the imm package tests.
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

// testConfig is the shared server configuration for the suite: small
// enough that BuildSketch runs in well under a second.
func testConfig(g *graph.Graph) Config {
	return Config{
		Graph:   g,
		Model:   diffuse.IC,
		Epsilon: 0.5,
		KMax:    50,
		Seed:    42,
		Workers: 4,
	}
}

func postSeeds(t *testing.T, client *http.Client, url string, body string) (int, http.Header, seedsResponse) {
	t.Helper()
	resp, err := client.Post(url+"/v1/seeds", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/seeds: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	var sr seedsResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	}
	return resp.StatusCode, resp.Header, sr
}

// TestSeedsEquivalence is the tentpole acceptance gate: seeds served over
// HTTP for k in {1, 10, kMax} must be byte-identical to a fresh indexed
// selection at that k over the same samples, and at kMax to the full
// imm.Run answer.
func TestSeedsEquivalence(t *testing.T) {
	g := testGraph(7, 200, 1500)
	cfg := testConfig(g)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Reference: the identical pipeline run standalone. Same options =>
	// same theta, same samples, so selection at any k <= kMax must agree.
	res, col, idx, err := imm.RunCollect(g, imm.Options{
		K: cfg.KMax, Epsilon: cfg.Epsilon, Model: cfg.Model,
		Workers: cfg.Workers, Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 10, cfg.KMax} {
		status, _, got := postSeeds(t, ts.Client(), ts.URL, fmt.Sprintf(`{"k":%d}`, k))
		if status != http.StatusOK {
			t.Fatalf("k=%d: status %d", k, status)
		}
		wantSeeds, wantCov := imm.SelectSeedsIndexed(col, idx, k, cfg.Workers)
		if !slices.Equal(got.Seeds, wantSeeds) {
			t.Fatalf("k=%d: served seeds %v != fresh selection %v", k, got.Seeds, wantSeeds)
		}
		if got.Theta != res.Theta {
			t.Fatalf("k=%d: served theta %d != run theta %d", k, got.Theta, res.Theta)
		}
		if got.Report == nil || got.Report.CoverageFraction != float64(wantCov)/float64(col.Count()) {
			t.Fatalf("k=%d: report coverage mismatch", k)
		}
		if got.Source != "sampled" || !got.Cached {
			t.Fatalf("k=%d: source=%q cached=%v, want sampled/true after Prewarm", k, got.Source, got.Cached)
		}
	}
	// At kMax the served answer is exactly the batch pipeline's answer.
	status, _, got := postSeeds(t, ts.Client(), ts.URL, fmt.Sprintf(`{"k":%d}`, cfg.KMax))
	if status != http.StatusOK || !slices.Equal(got.Seeds, res.Seeds) {
		t.Fatalf("k=kMax: served %v != imm.Run %v", got.Seeds, res.Seeds)
	}
}

// TestBuildSketchSelectsNothing: building a sketch draws, transcodes and
// indexes but runs no selection, so a served report's SelectSeeds time is
// the query's own; the footprint gauges still describe the resident store.
func TestBuildSketchSelectsNothing(t *testing.T) {
	g := testGraph(7, 200, 1500)
	cfg := testConfig(g)
	key := SketchKey{GraphDigest: g.Digest(), Model: cfg.Model, Epsilon: cfg.Epsilon, KMax: cfg.KMax, Seed: cfg.Seed}
	for _, store := range []imm.StoreKind{imm.StoreFlat, imm.StoreCoded} {
		reg := metrics.NewRegistry()
		sk, err := BuildSketch(g, key, cfg.Workers, store, reg)
		if err != nil {
			t.Fatal(err)
		}
		if d := sk.BuildPhases.Get(trace.SelectSeeds); d != 0 {
			t.Errorf("store %s: building the sketch spent %v in SelectSeeds, want 0", store, d)
		}
		if sk.BuildPhases.Get(trace.Sampling) <= 0 {
			t.Errorf("store %s: no sampling time recorded", store)
		}
		if got := reg.Gauge("rrr/store-bytes").Value(); got != sk.Col.Bytes() {
			t.Errorf("store %s: rrr/store-bytes %d, store holds %d", store, got, sk.Col.Bytes())
		}
		if got := reg.Gauge("rrr/index-bytes").Value(); got != sk.Idx.Bytes() {
			t.Errorf("store %s: rrr/index-bytes %d, index holds %d", store, got, sk.Idx.Bytes())
		}
	}
}

// TestBuildSketchIndexMatchesFreshBuild: the sketch keeps the index its
// draw extended round by round, which equals a fresh build over the coded
// store under either labeling, and the draw wrote each sample's entries
// into it once.
func TestBuildSketchIndexMatchesFreshBuild(t *testing.T) {
	g := testGraph(7, 200, 1500)
	cfg := testConfig(g)
	key := SketchKey{GraphDigest: g.Digest(), Model: cfg.Model, Epsilon: cfg.Epsilon, KMax: cfg.KMax, Seed: cfg.Seed}
	for _, store := range []imm.StoreKind{imm.StoreFlat, imm.StoreCoded} {
		reg := metrics.NewRegistry()
		sk, err := BuildSketch(g, key, cfg.Workers, store, reg)
		if err != nil {
			t.Fatal(err)
		}
		snap := func(idx *rrr.Index) []byte {
			var buf bytes.Buffer
			if err := rrr.WriteSnapshot(&buf, sk.Meta(), sk.Col, idx, nil); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if !bytes.Equal(snap(sk.Idx), snap(rrr.BuildIndexCoded(sk.Col, 1))) {
			t.Errorf("store %s: the sketch's index differs from a fresh build", store)
		}
		if got := reg.Counter("rrr/index-entries").Value(); got != sk.Col.TotalSize() {
			t.Errorf("store %s: rrr/index-entries %d, samples hold %d", store, got, sk.Col.TotalSize())
		}
	}
}

// TestSnapshotWarmStart: a server started from a snapshot answers its
// first query with zero estimation/sampling time in the report, and with
// the same seeds the sampling server serves.
func TestSnapshotWarmStart(t *testing.T) {
	g := testGraph(7, 200, 1500)
	cfg := testConfig(g)

	built, err := BuildSketch(g, SketchKey{
		GraphDigest: g.Digest(), Model: cfg.Model, Epsilon: cfg.Epsilon,
		KMax: cfg.KMax, Seed: cfg.Seed,
	}, cfg.Workers, imm.StoreFlat, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sketch.snap")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSketch(path, g, cfg.Workers, imm.StoreFlat, 0)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Sketch = loaded
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, got := postSeeds(t, ts.Client(), ts.URL, `{"k":10}`)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if got.Source != "snapshot" || !got.Cached {
		t.Fatalf("source=%q cached=%v, want snapshot/true", got.Source, got.Cached)
	}
	if got.Report == nil {
		t.Fatal("no report")
	}
	for _, phase := range []trace.Phase{trace.Estimation, trace.Sampling} {
		if sec := got.Report.PhaseSeconds[phase.String()]; sec != 0 {
			t.Fatalf("warm start spent %v s in %s, want 0", sec, phase)
		}
	}
	if got.Report.PhaseSeconds[trace.SelectSeeds.String()] <= 0 {
		t.Fatal("report is missing the query's selection time")
	}
	wantSeeds, _ := built.Query(10, cfg.Workers)
	if !slices.Equal(got.Seeds, wantSeeds) {
		t.Fatalf("warm-start seeds %v != sampled sketch seeds %v", got.Seeds, wantSeeds)
	}
	if s.mBuilds.Value() != 0 {
		t.Fatalf("warm start triggered %d sketch builds", s.mBuilds.Value())
	}
}

// TestSaturationReturns429: with the pool full and the queue full, the
// next query is rejected immediately with 429 + Retry-After instead of
// queueing.
func TestSaturationReturns429(t *testing.T) {
	g := testGraph(7, 120, 800)
	cfg := testConfig(g)
	cfg.KMax = 20
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	s.testQueryHook = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 2)
	post := func() {
		status, _, _ := postSeeds(t, ts.Client(), ts.URL, `{"k":5}`)
		done <- status
	}
	go post() // occupies the pool, parked in the hook
	<-entered
	go post() // admitted, waiting for a pool slot
	for s.admitted.Load() != 2 {
		time.Sleep(time.Millisecond)
	}

	// Third query: past MaxConcurrent+MaxQueue, must bounce.
	status, hdr, _ := postSeeds(t, ts.Client(), ts.URL, `{"k":5}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated query got %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if s.mRejected.Value() != 1 {
		t.Fatalf("rejected counter = %d, want 1", s.mRejected.Value())
	}

	close(release)
	for i := 0; i < 2; i++ {
		if st := <-done; st != http.StatusOK {
			t.Fatalf("parked query %d finished with %d, want 200", i, st)
		}
	}
}

// TestQueueWaitTimeout: a query that cannot get a pool slot within
// QueryTimeout is answered 503 + Retry-After.
func TestQueueWaitTimeout(t *testing.T) {
	g := testGraph(7, 120, 800)
	cfg := testConfig(g)
	cfg.KMax = 20
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = 4
	cfg.QueryTimeout = 30 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	s.testQueryHook = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		status, _, _ := postSeeds(t, ts.Client(), ts.URL, `{"k":5}`)
		done <- status
	}()
	<-entered

	status, hdr, _ := postSeeds(t, ts.Client(), ts.URL, `{"k":5}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("queued-past-timeout query got %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if s.mTimeouts.Value() != 1 {
		t.Fatalf("timeouts counter = %d, want 1", s.mTimeouts.Value())
	}
	close(release)
	if st := <-done; st != http.StatusOK {
		t.Fatalf("parked query finished with %d", st)
	}
}

// TestShutdownDrains: Shutdown completes in-flight queries, flips health
// to draining, and refuses new work.
func TestShutdownDrains(t *testing.T) {
	g := testGraph(7, 120, 800)
	cfg := testConfig(g)
	cfg.KMax = 20
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testQueryHook = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inflight := make(chan int, 1)
	go func() {
		status, _, _ := postSeeds(t, ts.Client(), ts.URL, `{"k":5}`)
		inflight <- status
	}()
	<-entered

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	if status, _, _ := postSeeds(t, ts.Client(), ts.URL, `{"k":5}`); status != http.StatusServiceUnavailable {
		t.Fatalf("new query while draining = %d, want 503", status)
	}

	close(release)
	if st := <-inflight; st != http.StatusOK {
		t.Fatalf("in-flight query finished with %d, want 200 (drain must not kill it)", st)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestStartServesRealSocket: the Start/Shutdown pair over a real TCP
// listener, as cmd/immserve drives it.
func TestStartServesRealSocket(t *testing.T) {
	g := testGraph(7, 120, 800)
	cfg := testConfig(g)
	cfg.KMax = 20
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	status, _, got := postSeeds(t, http.DefaultClient, base, `{"k":3}`)
	if status != http.StatusOK || len(got.Seeds) != 3 {
		t.Fatalf("seeds over socket: status=%d seeds=%v", status, got.Seeds)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestSeedsBadRequests: malformed queries are 400s with a JSON error, not
// 500s and not sketch builds.
func TestSeedsBadRequests(t *testing.T) {
	g := testGraph(7, 120, 800)
	cfg := testConfig(g)
	cfg.KMax = 20
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"k zero", `{"k":0}`},
		{"k past kMax", `{"k":21}`},
		{"negative k", `{"k":-4}`},
		{"bad model", `{"k":5,"model":"percolation"}`},
		{"bad epsilon", `{"k":5,"epsilon":2.0}`},
		{"not json", `seeds please`},
		{"empty body", ``},
	}
	for _, tc := range cases {
		status, _, _ := postSeeds(t, ts.Client(), ts.URL, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
		}
	}
	if s.mBuilds.Value() != 0 {
		t.Fatalf("bad requests triggered %d sketch builds", s.mBuilds.Value())
	}

	// Wrong method on the query route.
	resp, err := ts.Client().Get(ts.URL + "/v1/seeds")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/seeds = %d, want 405", resp.StatusCode)
	}
}

// TestQueryOverrideSelectsSecondSketch: overriding the sampling seed in
// the request populates a second cache slot with its own theta samples.
func TestQueryOverrideSelectsSecondSketch(t *testing.T) {
	g := testGraph(7, 120, 800)
	cfg := testConfig(g)
	cfg.KMax = 20
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, a := postSeeds(t, ts.Client(), ts.URL, `{"k":5}`)
	if status != http.StatusOK {
		t.Fatalf("default query: %d", status)
	}
	status, _, b := postSeeds(t, ts.Client(), ts.URL, `{"k":5,"seed":1234}`)
	if status != http.StatusOK {
		t.Fatalf("override query: %d", status)
	}
	if a.Report.Seed == b.Report.Seed {
		t.Fatal("override did not change the sampling seed")
	}
	if s.mBuilds.Value() != 2 {
		t.Fatalf("builds = %d, want 2 (one per configuration)", s.mBuilds.Value())
	}
	if got := s.mSketches.Value(); got != 2 {
		t.Fatalf("resident sketches gauge = %d, want 2", got)
	}
}

// TestMetricsEndpoint: /v1/metrics exposes the registry snapshot with the
// server-side instrumentation.
func TestMetricsEndpoint(t *testing.T) {
	g := testGraph(7, 120, 800)
	cfg := testConfig(g)
	cfg.KMax = 20
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, _, _ := postSeeds(t, ts.Client(), ts.URL, `{"k":5}`); status != http.StatusOK {
		t.Fatalf("query failed: %d", status)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server/queries"] != 1 {
		t.Fatalf("server/queries = %d, want 1 (snapshot: %+v)", snap.Counters["server/queries"], snap)
	}
	if snap.Counters["server/sketch-builds"] != 1 {
		t.Fatalf("server/sketch-builds = %d, want 1", snap.Counters["server/sketch-builds"])
	}
	if h := snap.Histograms["server/query-us"]; h == nil || h.Count != 1 {
		t.Fatalf("server/query-us histogram = %+v, want one observation", h)
	}
}

// TestNewValidation: New rejects unusable configurations up front.
func TestNewValidation(t *testing.T) {
	g := testGraph(7, 50, 300)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil graph", func(c *Config) { c.Graph = nil }},
		{"kMax zero", func(c *Config) { c.KMax = 0 }},
		{"kMax past n", func(c *Config) { c.KMax = 51 }},
		{"epsilon zero", func(c *Config) { c.Epsilon = 0 }},
		{"epsilon one", func(c *Config) { c.Epsilon = 1 }},
		{"foreign sketch", func(c *Config) {
			c.Sketch = &Sketch{Key: SketchKey{GraphDigest: 0xdead}}
		}},
	}
	for _, tc := range cases {
		cfg := testConfig(g)
		cfg.KMax = 10
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
}

// TestPprofOptIn: the pprof mux is absent by default and present when
// enabled.
func TestPprofOptIn(t *testing.T) {
	g := testGraph(7, 50, 300)
	cfg := testConfig(g)
	cfg.KMax = 10
	for _, enable := range []bool{false, true} {
		cfg.EnablePprof = enable
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		resp, err := ts.Client().Get(ts.URL + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ts.Close()
		if enable && resp.StatusCode != http.StatusOK {
			t.Fatalf("pprof enabled but /debug/pprof/cmdline = %d", resp.StatusCode)
		}
		if !enable && resp.StatusCode == http.StatusOK {
			t.Fatal("pprof served without opt-in")
		}
	}
}

// TestConcurrentQueriesShareSketch drives parallel queries with mixed k
// through the full HTTP stack — the race-detector target for the
// copy-on-read claim end to end.
func TestConcurrentQueriesShareSketch(t *testing.T) {
	g := testGraph(7, 150, 1000)
	cfg := testConfig(g)
	cfg.KMax = 20
	cfg.MaxConcurrent = 8
	cfg.MaxQueue = 64
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sk, _, err := s.sketchFor(context.Background(), s.DefaultKey())
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]graph.Vertex{}
	for _, k := range []int{1, 5, 20} {
		want[k], _ = imm.SelectSeedsSketch(sk.Col, sk.Idx, k, cfg.Workers)
	}

	const rounds = 24
	errs := make(chan error, rounds)
	for i := 0; i < rounds; i++ {
		k := []int{1, 5, 20}[i%3]
		go func(k int) {
			status, _, got := postSeeds(t, ts.Client(), ts.URL, fmt.Sprintf(`{"k":%d}`, k))
			if status != http.StatusOK {
				errs <- fmt.Errorf("k=%d: status %d", k, status)
				return
			}
			if !slices.Equal(got.Seeds, want[k]) {
				errs <- fmt.Errorf("k=%d: %v != %v", k, got.Seeds, want[k])
				return
			}
			errs <- nil
		}(k)
	}
	for i := 0; i < rounds; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRequestBodyTooLarge: the body reader is capped.
func TestRequestBodyTooLarge(t *testing.T) {
	g := testGraph(7, 50, 300)
	cfg := testConfig(g)
	cfg.KMax = 10
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The padding sits inside the JSON value, so the decoder must read
	// past the /v1/seeds cap of 1 MiB + 8 B a vertex to finish it.
	huge := `{"k":5,"model":"` + strings.Repeat("a", 1<<20+8*g.NumVertices()+64) + `"}`
	status, raw := postRaw(t, ts.URL+"/v1/seeds", huge)
	if status != http.StatusBadRequest || !strings.Contains(string(raw), "too large") {
		t.Fatalf("oversized body = %d %s, want the cap's 400", status, raw)
	}
}

// TestErrorsClipClientStrings: a 400 quotes at most a short prefix of
// the client string it rejects, with its length, so a megabyte model
// name, number literal or delta op does not come back as a megabyte
// error body.
func TestErrorsClipClientStrings(t *testing.T) {
	g := testGraph(7, 50, 300)
	serve := func(cfg Config) string {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	static, dynamic := serve(testConfig(g)), serve(dynConfig(g)) // only a static server takes a model
	long := strings.Repeat("a", 1<<20-64)
	for _, tc := range []struct{ url, body, says string }{
		{static + "/v1/seeds", `{"k":5,"model":"` + long + `"}`, "unknown model"},
		{static + "/v1/seeds", `{"k":` + strings.Repeat("1", 1<<20-64) + `}`, "cannot unmarshal number"},
		{dynamic + "/v1/graph/delta", `{"ops":[{"op":"` + long + `","src":0,"dst":1}]}`, "ops[0].op"},
	} {
		status, raw := postRaw(t, tc.url, tc.body)
		if status != http.StatusBadRequest || len(raw) >= 1<<10 || !strings.Contains(string(raw), tc.says) {
			t.Errorf("%s body of %d bytes: %d, %d-byte answer %.200q, want a 400 under 1 KB saying %q",
				tc.url, len(tc.body), status, len(raw), raw, tc.says)
		}
	}
}

// TestRequestBodyCap: a /v1/seeds body may reach 1 MiB + 8 B a vertex
// and not one byte more; a /v1/spread body keeps 1 MiB. Past either cap
// the 400 is the cap's own.
func TestRequestBodyCap(t *testing.T) {
	g := testGraph(7, 50, 300)
	cfg := testConfig(g)
	cfg.KMax = 10
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seedsCap := 1<<20 + 8*g.NumVertices()
	pad := func(body string, size int) string { return body + strings.Repeat(" ", size-len(body)) }
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/v1/seeds", pad(`{"k":5}`, seedsCap), http.StatusOK},
		{"/v1/seeds", pad(`{"k":5}`, seedsCap+1), http.StatusBadRequest},
		{"/v1/spread", pad(`{"seeds":[1]}`, 1<<20), http.StatusOK},
		{"/v1/spread", pad(`{"seeds":[1]}`, 1<<20+1), http.StatusBadRequest},
	} {
		status, raw := postRaw(t, ts.URL+tc.path, tc.body)
		if status != tc.status || (status == http.StatusBadRequest && !strings.Contains(string(raw), "too large")) {
			t.Errorf("%s body of %d bytes: %d %s, want %d", tc.path, len(tc.body), status, raw, tc.status)
		}
	}
}
