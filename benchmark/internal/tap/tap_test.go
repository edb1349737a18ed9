package tap

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"influmax/benchmark/internal/span"
	"influmax/internal/cluster"
	"influmax/internal/diffuse"
	"influmax/internal/gen"
	"influmax/internal/graph"
	"influmax/internal/server"
)

// TestHandlerCountsKnownRequest posts a body of known size to a handler
// that answers with a known size, written in pieces.
func TestHandlerCountsKnownRequest(t *testing.T) {
	rec := span.NewRecorder()
	tap := NewHandler("known.handle", rec, nil)
	h := tap.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		for i := 0; i < 3; i++ {
			w.Write(bytes.Repeat([]byte("x"), 400))
		}
		w.Write([]byte("tail"))
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	post := func(parent, request uint64) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, srv.URL, strings.NewReader(strings.Repeat("b", 100)))
		if parent != 0 {
			req.Header.Set(HeaderParent, strconv.FormatUint(parent, 10))
			req.Header.Set(HeaderRequest, strconv.FormatUint(request, 10))
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	post(0, 0) // the tap is off: nothing may be counted
	if tap.Requests.Load() != 0 || tap.ReqBytes.Load() != 0 || len(rec.Spans()) != 0 {
		t.Fatalf("a disabled tap counted %d requests, %d bytes, %d spans", tap.Requests.Load(), tap.ReqBytes.Load(), len(rec.Spans()))
	}
	tap.Enable(true)
	tap.SetSpans(true)
	post(41, 7)
	post(41, 7)
	if got := tap.Requests.Load(); got != 2 {
		t.Errorf("requests = %d, want 2", got)
	}
	if got := tap.ReqBytes.Load(); got != 200 {
		t.Errorf("request bytes = %d, want 200", got)
	}
	if got := tap.RespBytes.Load(); got != 2*1204 {
		t.Errorf("response bytes = %d, want %d", got, 2*1204)
	}
	spans := rec.Spans()
	if len(spans) != 2 || spans[0].Name != "known.handle" || spans[0].Parent != 41 || spans[0].Request != 7 {
		t.Errorf("spans = %+v, want two known.handle spans under parent 41 of request 7", spans)
	}
	if tap.BusyNs.Load() <= 0 {
		t.Error("no busy time recorded")
	}
	tap.Reset()
	if tap.Requests.Load() != 0 || tap.RespBytes.Load() != 0 {
		t.Error("Reset left counts behind")
	}
}

// fleet builds a two-shard fleet over real HTTP with every probe on, the
// way the benchmark's serve-routed workload does.
func fleet(t *testing.T, rec *span.Recorder) (*cluster.Router, *ConnTap, []*Handler, *graph.Graph) {
	t.Helper()
	d, err := gen.ByName("soc-Epinions1")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Generate(0.01, 3)
	g.AssignWeightedCascade()
	shards, err := cluster.BuildShards(g, cluster.BuildOptions{K: 8, Epsilon: 0.5, Model: diffuse.IC, Seed: 3, Shards: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	connTap := NewConnTap(rec)
	var conns []cluster.Conn
	var taps []*Handler
	for slot, sh := range shards {
		srv, err := server.New(server.Config{Graph: g, Model: diffuse.IC, Epsilon: 0.5, KMax: 8, Seed: 3, Workers: 2, ClusterShard: sh})
		if err != nil {
			t.Fatal(err)
		}
		var wrapped *Conn
		ht := NewHandler("shard.handle", rec, func() (uint64, uint64) { return wrapped.Current() })
		ts := httptest.NewServer(ht.Wrap(srv.Handler()))
		t.Cleanup(ts.Close)
		wrapped = connTap.Wrap(cluster.NewHTTPConn(ts.URL, slot, 0))
		conns = append(conns, wrapped)
		taps = append(taps, ht)
	}
	rt, err := cluster.NewRouter(conns, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt, connTap, taps, g
}

// TestFleetCountsKnownQuery routes one plain k=5 query through a tapped
// fleet: on each connection the greedy loop makes one start, five purges
// and one end, and each shard's handler serves exactly those seven.
func TestFleetCountsKnownQuery(t *testing.T) {
	rec := span.NewRecorder()
	rt, connTap, taps, g := fleet(t, rec)
	connTap.Enable(true)
	connTap.SetSpans(true)
	for _, ht := range taps {
		ht.Enable(true)
		ht.SetSpans(true)
	}
	root := rec.Begin("router.select", 0, 9)
	connTap.SetParent(func() (uint64, uint64) { return root.ID(), 9 })
	res, err := rt.Select(5, nil)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 {
		t.Fatalf("selected %d seeds, want 5", len(res.Seeds))
	}

	durs := connTap.Durations()
	for op, want := range map[string]int{"start": 2, "purge": 10, "end": 2, "spread": 0, "info": 0} {
		if got := len(durs[op]); got != want {
			t.Errorf("%s ops = %d, want %d", op, got, want)
		}
	}
	for slot, ht := range taps {
		if got := ht.Requests.Load(); got != 7 {
			t.Errorf("shard %d served %d requests, want 7", slot, got)
		}
		// A start answers with one count per vertex, so it alone is
		// more than a byte per vertex; the five purges and the end are
		// a few bytes each on the way up.
		if got := ht.RespBytes.Load(); got < int64(g.NumVertices()) {
			t.Errorf("shard %d wrote %d bytes, fewer than its %d vertices", slot, got, g.NumVertices())
		}
		if got := ht.ReqBytes.Load(); got < 7 || got > 7*32 {
			t.Errorf("shard %d read %d bytes for seven session ops", slot, got)
		}
	}

	// Every conn span hangs from the router span, every shard span from a
	// conn span, and all of them belong to request 9.
	byID := make(map[uint64]span.Span)
	for _, s := range rec.Spans() {
		byID[s.ID] = s
	}
	var connSpans, shardSpans int
	for _, s := range byID {
		switch {
		case strings.HasPrefix(s.Name, "cluster.conn."):
			connSpans++
			if s.Parent != root.ID() || s.Request != 9 {
				t.Errorf("%s has parent %d request %d, want %d and 9", s.Name, s.Parent, s.Request, root.ID())
			}
		case s.Name == "shard.handle":
			shardSpans++
			if p := byID[s.Parent]; !strings.HasPrefix(p.Name, "cluster.conn.") || s.Request != 9 {
				t.Errorf("shard.handle has parent %q request %d, want a conn span and 9", p.Name, s.Request)
			}
		}
	}
	if connSpans != 14 || shardSpans != 14 {
		t.Errorf("%d conn spans and %d shard spans, want 14 of each", connSpans, shardSpans)
	}
	if self := span.SelfTimes(rec.Spans())[root.ID()]; self <= 0 || self >= byID[root.ID()].Duration() {
		t.Errorf("router self time %d is not inside (0, %d)", self, byID[root.ID()].Duration())
	}

	connTap.Reset()
	connTap.Enable(false)
	if _, err := rt.Select(2, nil); err != nil {
		t.Fatal(err)
	}
	if n := len(connTap.Durations()); n != 0 {
		t.Errorf("a disabled conn tap recorded %d op kinds", n)
	}
}
