package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/rrr"
)

// dynConfig is the shared dynamic-mode configuration: the static suite's
// testConfig with dynamic serving switched on.
func dynConfig(g *graph.Graph) Config {
	cfg := testConfig(g)
	cfg.Dynamic = true
	return cfg
}

func postDelta(t *testing.T, client *http.Client, url string, body string) (int, deltaResponse, string) {
	t.Helper()
	resp, err := client.Post(url+"/v1/graph/delta", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/graph/delta: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	var dr deltaResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &dr); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	}
	return resp.StatusCode, dr, string(raw)
}

// opsJSON renders a batch as the /v1/graph/delta wire format.
func opsJSON(d graph.Delta) string {
	var sb strings.Builder
	sb.WriteString(`{"ops":[`)
	for i, op := range d {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"op":%q,"src":%d,"dst":%d,"w":%g}`, op.Kind, op.Src, op.Dst, op.W)
	}
	sb.WriteString("]}")
	return sb.String()
}

// hasEdge reports whether g contains the directed edge u->v.
func hasEdge(g *graph.Graph, u, v graph.Vertex) bool {
	dsts, _ := g.OutNeighbors(u)
	return slices.Contains(dsts, v)
}

// absentEdges returns k distinct directed edges NOT present in g, scanned
// deterministically, so test scripts can insert without tripping the
// edge-already-exists rejection on an unlucky random graph.
func absentEdges(t *testing.T, g *graph.Graph, k int) []graph.DeltaOp {
	t.Helper()
	var ops []graph.DeltaOp
	n := graph.Vertex(g.NumVertices())
	for u := graph.Vertex(0); u < n && len(ops) < k; u++ {
		for v := graph.Vertex(0); v < n && len(ops) < k; v++ {
			if u != v && !hasEdge(g, u, v) {
				ops = append(ops, graph.DeltaOp{Kind: graph.DeltaInsert, Src: u, Dst: v})
			}
		}
	}
	if len(ops) < k {
		t.Fatalf("graph too dense: found %d absent edges, want %d", len(ops), k)
	}
	return ops
}

// coverageOf counts the samples of col containing at least one seed.
func coverageOf(col *rrr.Collection, seeds []graph.Vertex) int64 {
	var covered int64
	for i := 0; i < col.Count(); i++ {
		for _, v := range seeds {
			if col.Contains(i, v) {
				covered++
				break
			}
		}
	}
	return covered
}

// TestDeltaEndpointDifferential is the serving-layer half of the
// differential consistency harness: drive a dynamic server through delta
// batches over HTTP and require (a) lockstep byte-identity with a
// directly maintained imm.DynamicSketch fed the same batches, (b)
// monotonically increasing epochs stamped on both delta and seeds
// responses, and (c) after the full script, served seeds as good as a
// cold IMM rebuild on the mutated graph (within the sketch's epsilon).
func TestDeltaEndpointDifferential(t *testing.T) {
	g := testGraph(7, 200, 1500)
	cfg := dynConfig(g)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	opt := imm.Options{
		K: cfg.KMax, Epsilon: cfg.Epsilon, Model: cfg.Model,
		Workers: cfg.Workers, Seed: cfg.Seed,
	}
	direct, _, err := imm.NewDynamicSketch(g, opt, imm.WeightsExplicit)
	if err != nil {
		t.Fatal(err)
	}

	// Insert only edges absent from the random graph; delete only edges
	// this script inserted, so the script is valid for any testGraph draw.
	abs := absentEdges(t, g, 3)
	for i := range abs {
		abs[i].W = 0.8 + 0.05*float32(i)
	}
	script := []graph.Delta{
		{abs[0], abs[1]},
		{{Kind: graph.DeltaDelete, Src: abs[0].Src, Dst: abs[0].Dst}},
		{abs[2], {Kind: graph.DeltaDelete, Src: abs[1].Src, Dst: abs[1].Dst}},
	}
	var epoch uint64
	for bi, d := range script {
		status, dr, raw := postDelta(t, ts.Client(), ts.URL, opsJSON(d))
		if status != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", bi, status, raw)
		}
		if dr.Epoch != epoch+1 {
			t.Fatalf("batch %d: epoch %d, want %d (monotonic)", bi, dr.Epoch, epoch+1)
		}
		epoch = dr.Epoch
		want, err := direct.ApplyDelta(d)
		if err != nil {
			t.Fatalf("batch %d: direct apply: %v", bi, err)
		}
		if dr.Applied != want.Ops || dr.Candidates != want.Candidates ||
			dr.SamplesInvalidated != want.SamplesInvalidated {
			t.Fatalf("batch %d: served repair counters %+v != direct %+v", bi, dr, want)
		}

		// Served seeds must equal the direct sketch's at every k probed.
		for _, k := range []int{1, 5} {
			status, _, got := postSeeds(t, ts.Client(), ts.URL, fmt.Sprintf(`{"k":%d}`, k))
			if status != http.StatusOK {
				t.Fatalf("batch %d k=%d: status %d", bi, k, status)
			}
			wantSeeds, _ := imm.SelectSeedsIndexed(direct.Collection(), direct.Index(), k, cfg.Workers)
			if !slices.Equal(got.Seeds, wantSeeds) {
				t.Fatalf("batch %d k=%d: served %v != direct %v", bi, k, got.Seeds, wantSeeds)
			}
			if got.DeltaEpoch != epoch {
				t.Fatalf("batch %d: seeds response epoch %d, want %d", bi, got.DeltaEpoch, epoch)
			}
			if got.Source != "dynamic" {
				t.Fatalf("batch %d: source %q, want dynamic", bi, got.Source)
			}
			if got.Report == nil || got.Report.DeltaEpoch != epoch {
				t.Fatalf("batch %d: report missing delta epoch", bi)
			}
		}
	}

	// Differential gate vs a cold rebuild on the mutated graph.
	status, _, got := postSeeds(t, ts.Client(), ts.URL, fmt.Sprintf(`{"k":%d}`, 5))
	if status != http.StatusOK {
		t.Fatalf("final seeds: status %d", status)
	}
	coldRes, coldCol, coldIdx, err := imm.RunCollect(s.dyn.Graph(), opt)
	if err != nil {
		t.Fatal(err)
	}
	coldSeeds, coldCov := imm.SelectSeedsIndexed(coldCol, coldIdx, 5, cfg.Workers)
	coldFrac := float64(coldCov) / float64(coldCol.Count())
	incCov := float64(coverageOf(coldCol, got.Seeds)) / float64(coldCol.Count())
	if incCov < coldFrac-cfg.Epsilon {
		t.Fatalf("served seeds %v cover %.4f of a cold rebuild's samples, cold greedy %v covers %.4f (eps %.2f, run frac %.4f)",
			got.Seeds, incCov, coldSeeds, coldFrac, cfg.Epsilon, coldRes.CoverageFraction)
	}
}

// TestDeltaEndpointValidation pins the 400 surface: malformed bodies,
// empty and oversized batches, unknown op names, semantic rejections from
// the overlay (which must leave the sketch untouched), the endpoint on a
// non-dynamic server, and per-query overrides in dynamic mode.
func TestDeltaEndpointValidation(t *testing.T) {
	g := testGraph(11, 80, 400)
	cfg := dynConfig(g)
	cfg.MaxDeltaOps = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	abs := absentEdges(t, g, 2)
	abs[0].W, abs[1].W = 0.5, 0.5
	bad := []struct {
		name, body string
	}{
		{"malformed json", `{"ops":`},
		// Each batch is valid on its own: the second may not be dropped
		// while the first is applied.
		{"concatenated batches", opsJSON(graph.Delta{abs[0]}) + opsJSON(graph.Delta{abs[1]})},
		{"trailing data", opsJSON(graph.Delta{abs[0]}) + " garbage"},
		{"empty batch", `{"ops":[]}`},
		{"no ops field", `{}`},
		{"oversized batch", opsJSON(graph.Delta{{}, {}, {}})},
		{"unknown op name", `{"ops":[{"op":"upsert","src":0,"dst":1,"w":0.5}]}`},
		{"endpoint out of range", `{"ops":[{"op":"insert","src":0,"dst":99999,"w":0.5}]}`},
		{"weight out of range", `{"ops":[{"op":"insert","src":0,"dst":1,"w":1.5}]}`},
		{"delete missing edge", `{"ops":[{"op":"delete","src":0,"dst":0}]}`},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			status, _, raw := postDelta(t, ts.Client(), ts.URL, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d (%s), want 400", status, raw)
			}
		})
	}
	// Nothing above may have advanced the sketch.
	if got := s.ServingSketch(); got.DeltaEpoch != 0 || len(got.Deltas) != 0 {
		t.Fatalf("rejected batches advanced the sketch to epoch %d", got.DeltaEpoch)
	}
	if s.dyn.Epoch() != 0 {
		t.Fatalf("rejected batches advanced the dynamic sketch to epoch %d", s.dyn.Epoch())
	}

	t.Run("override rejected in dynamic mode", func(t *testing.T) {
		for _, body := range []string{
			`{"k":2,"model":"LT"}`, `{"k":2,"epsilon":0.3}`, `{"k":2,"seed":7}`,
		} {
			status, _, _ := postSeeds(t, ts.Client(), ts.URL, body)
			if status != http.StatusBadRequest {
				t.Fatalf("override %s: status %d, want 400", body, status)
			}
		}
	})

	t.Run("endpoint requires dynamic mode", func(t *testing.T) {
		static, err := New(testConfig(g))
		if err != nil {
			t.Fatal(err)
		}
		tss := httptest.NewServer(static.Handler())
		defer tss.Close()
		status, _, raw := postDelta(t, tss.Client(), tss.URL, `{"ops":[{"op":"insert","src":0,"dst":1,"w":0.5}]}`)
		if status != http.StatusBadRequest || !strings.Contains(raw, "dynamic") {
			t.Fatalf("status %d (%s), want 400 naming dynamic mode", status, raw)
		}
	})

	t.Run("draining returns 503", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		status, _, _ := postDelta(t, ts.Client(), ts.URL, `{"ops":[{"op":"insert","src":0,"dst":1,"w":0.5}]}`)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503 while draining", status)
		}
	})
}

// TestDeltaWarmRestart pins the persistence contract: the served dynamic
// sketch saves with its delta log, a new dynamic server restores from
// that snapshot to the same epoch, graph and seeds, and a NON-dynamic
// server refuses the snapshot (its samples describe the mutated graph,
// not the base it would serve).
func TestDeltaWarmRestart(t *testing.T) {
	g := testGraph(13, 120, 700)
	cfg := dynConfig(g)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	abs := absentEdges(t, g, 2)
	abs[0].W, abs[1].W = 0.7, 0.6
	script := []graph.Delta{
		{abs[0]},
		{abs[1], {Kind: graph.DeltaDelete, Src: abs[0].Src, Dst: abs[0].Dst}},
	}
	for bi, d := range script {
		if status, _, raw := postDelta(t, ts.Client(), ts.URL, opsJSON(d)); status != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", bi, status, raw)
		}
	}
	_, _, want := postSeeds(t, ts.Client(), ts.URL, `{"k":4}`)

	path := filepath.Join(t.TempDir(), "dyn.rrs")
	sk := s.ServingSketch()
	if sk.DeltaEpoch != 2 || len(sk.Deltas) != 2 {
		t.Fatalf("serving sketch at epoch %d with %d batches, want 2/2", sk.DeltaEpoch, len(sk.Deltas))
	}
	if err := sk.Save(path); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadSketch(path, g, cfg.Workers, imm.StoreFlat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DeltaEpoch != 2 {
		t.Fatalf("loaded sketch at epoch %d, want 2", loaded.DeltaEpoch)
	}

	cfg2 := dynConfig(g)
	cfg2.Sketch = loaded
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	if got, wantD := s2.dyn.Graph().Digest(), s.dyn.Graph().Digest(); got != wantD {
		t.Fatalf("restored graph digest %016x != live %016x", got, wantD)
	}
	status, _, got := postSeeds(t, ts2.Client(), ts2.URL, `{"k":4}`)
	if status != http.StatusOK {
		t.Fatalf("restored seeds: status %d", status)
	}
	if !slices.Equal(got.Seeds, want.Seeds) || got.DeltaEpoch != want.DeltaEpoch {
		t.Fatalf("restored server served %v@%d, live served %v@%d",
			got.Seeds, got.DeltaEpoch, want.Seeds, want.DeltaEpoch)
	}

	// Further identical deltas keep the two servers in lockstep.
	more := absentEdges(t, s.dyn.Graph(), 1)
	more[0].W = 0.5
	extra := graph.Delta{more[0]}
	for _, srv := range []*httptest.Server{ts, ts2} {
		if status, _, raw := postDelta(t, srv.Client(), srv.URL, opsJSON(extra)); status != http.StatusOK {
			t.Fatalf("extra batch: status %d: %s", status, raw)
		}
	}
	_, _, a := postSeeds(t, ts.Client(), ts.URL, `{"k":4}`)
	_, _, b := postSeeds(t, ts2.Client(), ts2.URL, `{"k":4}`)
	if !slices.Equal(a.Seeds, b.Seeds) {
		t.Fatalf("post-restore divergence: %v vs %v", a.Seeds, b.Seeds)
	}

	t.Run("warm restart refuses an unknown weight policy", func(t *testing.T) {
		cfg4 := dynConfig(g)
		cfg4.Sketch = loaded
		cfg4.WeightPolicy = imm.WeightPolicy(9)
		if _, err := New(cfg4); err == nil || !strings.Contains(err.Error(), "unknown weight policy 9") {
			t.Fatalf("New = %v, want the weight policy rejected", err)
		}
	})

	t.Run("static server refuses delta-log snapshot", func(t *testing.T) {
		cfg3 := testConfig(g)
		cfg3.Sketch = loaded
		if _, err := New(cfg3); err == nil || !strings.Contains(err.Error(), "delta log") {
			t.Fatalf("New = %v, want delta-log rejection", err)
		}
	})
}

// TestDeltaConcurrentQueries races queries against delta batches: every
// query must serve a complete, self-consistent view (seed count as asked,
// an epoch no newer than the batches applied so far) — the bounded
// staleness contract, and the -race seam the CI delta-soak leans on.
func TestDeltaConcurrentQueries(t *testing.T) {
	g := testGraph(17, 150, 900)
	cfg := dynConfig(g)
	cfg.MaxConcurrent = 4
	cfg.MaxQueue = 64
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const batches = 6
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				status, _, got := postSeeds(t, ts.Client(), ts.URL, `{"k":3}`)
				if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
					continue
				}
				if status != http.StatusOK {
					t.Errorf("query status %d", status)
					return
				}
				if len(got.Seeds) != 3 || got.DeltaEpoch > batches {
					t.Errorf("inconsistent view: %d seeds at epoch %d", len(got.Seeds), got.DeltaEpoch)
					return
				}
			}
		}()
	}
	abs := absentEdges(t, g, batches)
	for b := 0; b < batches; b++ {
		abs[b].W = 0.6
		d := graph.Delta{abs[b]}
		if status, dr, raw := postDelta(t, ts.Client(), ts.URL, opsJSON(d)); status != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", b, status, raw)
		} else if dr.Epoch != uint64(b+1) {
			t.Fatalf("batch %d: epoch %d", b, dr.Epoch)
		}
	}
	close(done)
	wg.Wait()
}
