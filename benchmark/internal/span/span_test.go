package span

import (
	"encoding/json"
	"sync"
	"testing"
)

func sp(id, parent uint64, name string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end, Request: 1}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		// Nested: request > router > conn.
		sp(1, 0, "request", 0, 100),
		sp(2, 1, "router", 10, 90),
		sp(3, 2, "conn", 20, 40),
		// Overlapping siblings under the router: [50,70] and [60,80]
		// cover 30, not 40.
		sp(4, 2, "conn", 50, 70),
		sp(5, 2, "conn", 60, 80),
		// Parallel fan-out: two shard calls over the same interval.
		sp(6, 3, "shard", 22, 38),
		sp(7, 3, "shard", 22, 30),
		// A child that outlives its parent is clipped to it.
		sp(8, 4, "shard", 65, 75),
	}
	want := map[uint64]int64{
		1: 100 - 80,
		2: 80 - (20 + 30),
		3: 20 - 16,
		4: 20 - 5,
		5: 20,
		6: 16,
		7: 8,
		8: 10,
	}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	byName := SelfByName(spans)
	if byName["conn"] != 4+15+20 || byName["shard"] != 16+8+10 {
		t.Errorf("SelfByName = %v", byName)
	}
}

func TestRecorderNilIsSilent(t *testing.T) {
	var r *Recorder
	o := r.Begin("x", 0, 0)
	if o.ID() != 0 {
		t.Fatalf("nil recorder gave span id %d", o.ID())
	}
	o.End()
	if r.Spans() != nil {
		t.Fatal("nil recorder returned spans")
	}
}

func TestRecorderConcurrentAndJSON(t *testing.T) {
	r := NewRecorder()
	root := r.Begin("root", 0, 7)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.Begin("child", root.ID(), 7).End()
			}
		}()
	}
	wg.Wait()
	root.End()
	spans := r.Spans()
	if len(spans) != 401 {
		t.Fatalf("recorded %d spans, want 401", len(spans))
	}
	seen := make(map[uint64]bool)
	for _, s := range spans {
		if seen[s.ID] || s.ID == 0 {
			t.Fatalf("span id %d repeated or zero", s.ID)
		}
		seen[s.ID] = true
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
	}
	data, err := json.Marshal(spans)
	if err != nil {
		t.Fatal(err)
	}
	var back []map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"name", "start", "end", "parent", "request_id"} {
		if _, ok := back[0][key]; !ok {
			t.Errorf("span JSON lacks %q", key)
		}
	}
}

func TestRollupByRoot(t *testing.T) {
	spans := []Span{
		sp(1, 0, "request", 0, 100),
		sp(2, 1, "router", 10, 90),
		sp(3, 2, "conn", 20, 40),
		sp(4, 0, "request", 200, 260),
		sp(5, 4, "router", 210, 250),
		sp(6, 0, "direct", 300, 310),
	}
	rows := RollupByRoot(spans)
	if len(rows) != 2 || rows[0].Root != "direct" || rows[1].Root != "request" {
		t.Fatalf("rows = %+v", rows)
	}
	req := rows[1]
	if req.Count != 2 || req.MeanNs != 80 {
		t.Errorf("request: count %d mean %v, want 2 and 80", req.Count, req.MeanNs)
	}
	// Self times: requests 20 + 20, routers 60 + 40, conn 20; per request.
	want := map[string]float64{"request": 20, "router": 50, "conn": 10}
	for name, w := range want {
		if req.SelfNs[name] != w {
			t.Errorf("request tree: mean self time of %s = %v, want %v", name, req.SelfNs[name], w)
		}
	}
}
