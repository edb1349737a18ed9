package front

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
)

// fakeBackend answers every query with fixed seeds. While gate is non-nil
// each admitted query parks on it after signalling entered, so a test can
// hold slots deterministically; err, when set, is every query's answer,
// and panics makes Check panic.
type fakeBackend struct {
	entered chan struct{}
	gate    chan struct{}
	err     error
	fixed   bool
	panics  bool
}

func (b *fakeBackend) Check(o Overrides) error {
	if b.panics {
		panic("fakeBackend.Check")
	}
	if b.fixed && o.Any() {
		return ErrFixedSketch
	}
	return nil
}

func (b *fakeBackend) park() {
	if b.gate != nil {
		b.entered <- struct{}{}
		<-b.gate
	}
}

func (b *fakeBackend) Seeds(ctx context.Context, o Overrides, q imm.Query, onSeed func(int, graph.Vertex, int64)) (*SeedsResponse, error) {
	b.park()
	if b.err != nil {
		return nil, b.err
	}
	seeds := []graph.Vertex{3, 1, 4}[:q.K]
	gains := []int64{9, 5, 2}[:q.K]
	for i, v := range seeds {
		if onSeed != nil {
			onSeed(i, v, gains[i])
		}
	}
	return &SeedsResponse{Seeds: seeds, Gains: gains, Eligible: 7, SpentBudget: 1.5, Theta: 10,
		Local: &Local{Source: "fake"}}, nil
}

func (b *fakeBackend) Spread(ctx context.Context, o Overrides, seeds, audience []graph.Vertex) (*SpreadResponse, error) {
	b.park()
	if b.err != nil {
		return nil, b.err
	}
	return &SpreadResponse{Covered: int64(len(seeds)), Theta: 10}, nil
}

func (b *fakeBackend) Health() (map[string]any, bool) { return map[string]any{"status": "ok"}, true }

type testFront struct {
	*Front
	be  *fakeBackend
	reg *metrics.Registry
	srv *httptest.Server
}

func newTestFront(t *testing.T, cfg Config) *testFront {
	t.Helper()
	be := &fakeBackend{entered: make(chan struct{}, 8)}
	cfg.Name, cfg.KMax, cfg.NumVertices = "test", 3, 10
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	f := New(cfg, be)
	srv := httptest.NewServer(f.Mux)
	t.Cleanup(srv.Close)
	return &testFront{Front: f, be: be, reg: cfg.Metrics, srv: srv}
}

func (tf *testFront) post(t *testing.T, path, body string) (*http.Response, string) {
	t.Helper()
	resp, err := tf.srv.Client().Post(tf.srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text() + "\n")
	}
	return resp, sb.String()
}

// settled waits until every admitted query has released its slot and
// checks the gauges agree.
func (tf *testFront) settled(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for tf.Admitted.Load() != 0 || tf.reg.Gauge("test/queue-depth").Value() != 0 || tf.reg.Gauge("test/inflight").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slots not released: admitted %d, queue-depth %d, inflight %d", tf.Admitted.Load(),
				tf.reg.Gauge("test/queue-depth").Value(), tf.reg.Gauge("test/inflight").Value())
		}
		time.Sleep(time.Millisecond)
	}
	if len(tf.running) != 0 {
		t.Fatalf("%d worker slots still held", len(tf.running))
	}
}

// TestAdmission drives the admission paths once, over a fake backend: the
// 429 past the running+queued limit, the 503 when the queue wait times
// out, the 503 while draining, and the slot released on every path.
func TestAdmission(t *testing.T) {
	tf := newTestFront(t, Config{MaxConcurrent: 1, MaxQueue: 1, QueryTimeout: 50 * time.Millisecond})
	tf.be.gate = make(chan struct{})

	// One query runs (parked), one waits for its slot: the next is a 429.
	done := make(chan int, 2)
	go func() { resp, _ := tf.post(t, "/v1/seeds", `{"k":2}`); done <- resp.StatusCode }()
	<-tf.be.entered
	go func() { resp, _ := tf.post(t, "/v1/seeds", `{"k":2}`); done <- resp.StatusCode }()
	for tf.Admitted.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	if got := tf.reg.Gauge("test/queue-depth").Value(); got != 2 {
		t.Fatalf("queue-depth %d with 2 admitted", got)
	}
	resp, body := tf.post(t, "/v1/seeds", `{"k":2}`)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("past the limit: %d Retry-After %q (%s)", resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if tf.reg.Counter("test/rejected").Value() != 1 {
		t.Fatal("rejection not counted")
	}
	// The waiting query's 50ms queue wait expires behind the parked one.
	if st := <-done; st != http.StatusServiceUnavailable {
		t.Fatalf("queued past QueryTimeout: %d, want 503", st)
	}
	if tf.reg.Counter("test/timeouts").Value() != 1 {
		t.Fatal("queue-wait timeout not counted")
	}
	close(tf.be.gate)
	if st := <-done; st != http.StatusOK {
		t.Fatalf("parked query: %d", st)
	}
	tf.be.gate = nil
	tf.settled(t)

	// 400s after decoding release their slot too.
	for _, body := range []string{`{"k":0}`, `{"k":4}`, `{"k":2,"budget":-1}`, `{"k":`, `{"seeds":[]}`} {
		path := "/v1/seeds"
		if strings.HasPrefix(body, `{"seeds"`) {
			path = "/v1/spread"
		}
		if resp, _ := tf.post(t, path, body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: %d, want 400", path, body, resp.StatusCode)
		}
	}
	tf.settled(t)

	// Draining refuses new work with the backoff hint; health follows.
	if err := tf.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, _ = tf.post(t, "/v1/spread", `{"seeds":[1]}`)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("while draining: %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	hr, err := tf.srv.Client().Get(tf.srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(hr.Body).Decode(&health)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || health["status"] != "draining" {
		t.Fatalf("healthz while draining: %d %v", hr.StatusCode, health)
	}
	tf.settled(t)
}

// TestAdmissionSurvivesPanic: a request whose decode or validation
// panics gets no answer, but its admission slot is released, so later
// requests are served and not refused as saturated.
func TestAdmissionSurvivesPanic(t *testing.T) {
	tf := newTestFront(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	tf.srv.Config.ErrorLog = log.New(io.Discard, "", 0)
	tf.be.panics = true
	for range 3 {
		if resp, err := tf.srv.Client().Post(tf.srv.URL+"/v1/seeds", "application/json", strings.NewReader(`{"k":1}`)); err == nil {
			resp.Body.Close()
			t.Fatalf("panicking validation answered %d", resp.StatusCode)
		}
	}
	tf.settled(t)
	tf.be.panics = false
	if resp, body := tf.post(t, "/v1/seeds", `{"k":1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("after the panics: %d %s", resp.StatusCode, body)
	}
	tf.settled(t)
}

// TestStatusMap pins the error-to-status map and its counters: the
// backend's BadRequest is a 400, Unavailable a 503 with Retry-After (a
// timeout when it wraps a context error), and anything else a 500.
func TestStatusMap(t *testing.T) {
	tf := newTestFront(t, Config{})
	for _, tc := range []struct {
		err      error
		status   int
		counter  string
		retryHdr bool
	}{
		{BadRequest(errors.New("bad")), http.StatusBadRequest, "", false},
		{Unavailable(errors.New("no shards")), http.StatusServiceUnavailable, "", true},
		{Unavailable(context.DeadlineExceeded), http.StatusServiceUnavailable, "test/timeouts", true},
		{errors.New("boom"), http.StatusInternalServerError, "test/errors", false},
	} {
		tf.be.err = tc.err
		before := int64(0)
		if tc.counter != "" {
			before = tf.reg.Counter(tc.counter).Value()
		}
		resp, body := tf.post(t, "/v1/seeds", `{"k":1}`)
		var env struct{ Error string }
		if resp.StatusCode != tc.status || json.Unmarshal([]byte(body), &env) != nil || env.Error != tc.err.Error() {
			t.Fatalf("%v: %d %q, want %d with the error envelope", tc.err, resp.StatusCode, body, tc.status)
		}
		if (resp.Header.Get("Retry-After") != "") != tc.retryHdr {
			t.Fatalf("%v: Retry-After %q", tc.err, resp.Header.Get("Retry-After"))
		}
		if tc.counter != "" && tf.reg.Counter(tc.counter).Value() != before+1 {
			t.Fatalf("%v: %s not counted", tc.err, tc.counter)
		}
	}
	tf.settled(t)
}

// TestSchema pins the shared presence rules and the override refusal: a
// plain answer carries no gains/eligible/spentBudget, a non-plain one
// does, the front fills k and kMax, and a fixed-sketch backend answers an
// override with 400.
func TestSchema(t *testing.T) {
	tf := newTestFront(t, Config{})
	_, plain := tf.post(t, "/v1/seeds", `{"k":2}`)
	for _, key := range []string{`"gains"`, `"eligible"`, `"spentBudget"`} {
		if strings.Contains(plain, key) {
			t.Fatalf("plain answer carries %s: %s", key, plain)
		}
	}
	var got SeedsResponse
	_, shaped := tf.post(t, "/v1/seeds", `{"k":2,"blocked":[9]}`)
	if err := json.Unmarshal([]byte(shaped), &got); err != nil || got.K != 2 || got.KMax != 3 ||
		len(got.Gains) != 2 || got.Eligible != 7 || got.Local == nil || got.FleetSelection != nil {
		t.Fatalf("non-plain answer %s (%v)", shaped, err)
	}
	if tf.reg.Counter("test/query-blocked").Value() != 1 {
		t.Fatal("shape not counted")
	}
	tf.be.fixed = true
	resp, body := tf.post(t, "/v1/seeds", `{"k":2,"epsilon":0.1}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "one sketch configuration") {
		t.Fatalf("override on a fixed sketch: %d %s", resp.StatusCode, body)
	}
}

// TestStream: a streamed answer is NDJSON, one line per seed and the
// summary last; a failure before the first seed keeps its own status.
func TestStream(t *testing.T) {
	tf := newTestFront(t, Config{})
	resp, body := tf.post(t, "/v1/seeds", `{"k":3,"stream":true}`)
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/x-ndjson" {
		t.Fatalf("stream: %d %q", resp.StatusCode, ct)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 3 seed lines and a summary, got %q", body)
	}
	for i, line := range lines[:3] {
		var s StreamedSeed
		if err := json.Unmarshal([]byte(line), &s); err != nil || s.Index != i {
			t.Fatalf("seed line %d: %q", i, line)
		}
	}
	var sum SeedsResponse
	if err := json.Unmarshal([]byte(lines[3]), &sum); err != nil || len(sum.Seeds) != 3 || sum.Gains != nil {
		t.Fatalf("summary line %q", lines[3])
	}
	tf.be.err = Unavailable(errors.New("no shards"))
	if resp, _ := tf.post(t, "/v1/seeds", `{"k":3,"stream":true}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream failing before its first seed: %d, want 503", resp.StatusCode)
	}
	tf.settled(t)
}
