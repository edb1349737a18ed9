package front

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
)

// Backend answers the queries a Front has admitted, decoded and
// validated; its errors go through the status map (see Error).
type Backend interface {
	// Check vets a request's sketch overrides before it queues; an error
	// is a 400.
	Check(o Overrides) error
	// Seeds answers q; onSeed, when non-nil, is imm.Greedy's streaming
	// hook. The front fills K and KMax and drops a plain answer's extras.
	Seeds(ctx context.Context, o Overrides, q imm.Query, onSeed func(i int, v graph.Vertex, gain int64)) (*SeedsResponse, error)
	Spread(ctx context.Context, o Overrides, seeds, audience []graph.Vertex) (*SpreadResponse, error)
	// Health returns the /healthz body, carrying a "status" word, and
	// whether the backend can serve.
	Health() (body map[string]any, ok bool)
}

// Config configures a Front; zero values take the defaults noted.
type Config struct {
	// KMax and NumVertices bound the requests' k and vertex ids.
	KMax, NumVertices int
	// Name prefixes the front's metrics: Name/rejected, Name/timeouts,
	// Name/errors, Name/inflight, Name/queue-depth, and the per-shape
	// Name/query-{budgeted,targeted,blocked,spread} counters.
	Name    string
	Metrics *metrics.Registry
	// MaxConcurrent bounds queries running at once (2) and MaxQueue those
	// waiting past that before 429s (16); QueryTimeout bounds the wait and
	// is the backend call's deadline (60s); RetryAfter is the hint on 429
	// and 503 answers (1s).
	MaxConcurrent, MaxQueue  int
	QueryTimeout, RetryAfter time.Duration
	// Defaults holds the Budget, Audience and Blocked a /v1/seeds request
	// inherits when it leaves the field absent.
	Defaults imm.Query
}

// Front is the HTTP front of a seed-serving process over one Backend.
type Front struct {
	// Mux serves the front's routes; embedders add their own to it.
	Mux *http.ServeMux
	// Admitted counts running plus queued queries; Draining turns true at
	// Shutdown. Both are read-only outside this package.
	Admitted atomic.Int64
	Draining atomic.Bool

	be         Backend
	cfg        Config
	retryAfter string
	running    chan struct{}
	httpSrv    *http.Server

	mRejected, mTimeouts, mErrors           *metrics.Counter
	mBudgeted, mTargeted, mBlocked, mSpread *metrics.Counter
	mInflight, mQueueDepth                  *metrics.Gauge
}

// New returns a front serving /v1/seeds, /v1/spread, /healthz and
// /v1/metrics from be.
func New(cfg Config, be Backend) *Front {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 16
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 60 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	reg, p := cfg.Metrics, cfg.Name+"/"
	f := &Front{
		Mux:         http.NewServeMux(),
		be:          be,
		cfg:         cfg,
		retryAfter:  strconv.Itoa(int((cfg.RetryAfter + time.Second - 1) / time.Second)),
		running:     make(chan struct{}, cfg.MaxConcurrent),
		mRejected:   reg.Counter(p + "rejected"),
		mTimeouts:   reg.Counter(p + "timeouts"),
		mErrors:     reg.Counter(p + "errors"),
		mBudgeted:   reg.Counter(p + "query-budgeted"),
		mTargeted:   reg.Counter(p + "query-targeted"),
		mBlocked:    reg.Counter(p + "query-blocked"),
		mSpread:     reg.Counter(p + "query-spread"),
		mInflight:   reg.Gauge(p + "inflight"),
		mQueueDepth: reg.Gauge(p + "queue-depth"),
	}
	f.Mux.HandleFunc("POST /v1/seeds", f.handleSeeds)
	f.Mux.HandleFunc("POST /v1/spread", f.handleSpread)
	f.Mux.HandleFunc("GET /healthz", f.handleHealthz)
	f.Mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		if snap == nil {
			snap = &metrics.Snapshot{}
		}
		WriteJSON(w, http.StatusOK, snap)
	})
	return f
}

// Start listens on addr and serves until Shutdown; it returns the bound
// address (useful with ":0").
func (f *Front) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	f.httpSrv = &http.Server{Handler: f.Mux}
	go f.httpSrv.Serve(ln)
	return ln.Addr(), nil
}

// Shutdown drains: health flips to 503, no new queries are admitted, and
// in-flight ones finish, bounded by ctx (closing the listener of a Start).
func (f *Front) Shutdown(ctx context.Context) error {
	f.Draining.Store(true)
	if f.httpSrv != nil {
		return f.httpSrv.Shutdown(ctx)
	}
	for f.Admitted.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// statusError carries the HTTP status an error is answered with.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// BadRequest marks err as the client's fault.
func BadRequest(err error) error { return &statusError{http.StatusBadRequest, err} }

// Unavailable marks err as a transient refusal.
func Unavailable(err error) error { return &statusError{http.StatusServiceUnavailable, err} }

// ErrFixedSketch refuses sketch overrides on a backend that serves one
// sketch configuration.
var ErrFixedSketch = errors.New("this front serves one sketch configuration; model/epsilon/seed overrides are not available")

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// WriteJSON answers v as JSON with status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Error answers err in the error envelope under the status map: a
// BadRequest is a 400, an Unavailable a 503 + Retry-After (a timeout if
// it wraps a context error), anything else a 500 (an error).
func (f *Front) Error(w http.ResponseWriter, err error) {
	status := f.status(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", f.retryAfter)
	}
	WriteJSON(w, status, errorBody{err.Error()})
}

func (f *Front) status(err error) int {
	var se *statusError
	if !errors.As(err, &se) {
		f.mErrors.Inc()
		return http.StatusInternalServerError
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		f.mTimeouts.Inc()
	}
	return se.status
}

// admit refuses while draining or saturated, decodes the body, capped at
// limit bytes, into req, runs validate (an error is a 400), then waits —
// bounded by QueryTimeout and the client hanging up — for a worker slot.
// It returns the query's context and the release to defer (Shutdown
// waits for it), or a nil release once the refusal is written.
func (f *Front) admit(w http.ResponseWriter, r *http.Request, limit int64, req any, validate func() error) (context.Context, func()) {
	if f.Draining.Load() {
		f.Error(w, Unavailable(errors.New("draining")))
		return nil, nil
	}
	// The queue-depth gauge tracks admitted (running + waiting), so
	// saturation is visible in /v1/metrics before the 429s start.
	adm := f.Admitted.Add(1)
	leave := func() { f.mQueueDepth.Set(f.Admitted.Add(-1)) }
	if limit := int64(f.cfg.MaxConcurrent + f.cfg.MaxQueue); adm > limit {
		leave()
		f.mRejected.Inc()
		f.Error(w, &statusError{http.StatusTooManyRequests, fmt.Errorf(
			"saturated: %d queries admitted (limit %d running + %d queued)", limit, f.cfg.MaxConcurrent, f.cfg.MaxQueue)})
		return nil, nil
	}
	f.mQueueDepth.Set(adm)
	// Every way out but a granted slot leaves, a panic in decode or
	// validate included, so no slot outlives its request.
	granted := false
	defer func() {
		if !granted {
			leave()
		}
	}()
	err := decodeCapped(w, r, req, limit)
	if err == nil {
		if err = validate(); err != nil {
			err = BadRequest(err)
		}
	}
	if err != nil {
		f.Error(w, err)
		return nil, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), f.cfg.QueryTimeout)
	select {
	case f.running <- struct{}{}:
	case <-ctx.Done():
		f.Error(w, Unavailable(fmt.Errorf("queue wait exceeded: %w", ctx.Err())))
		cancel()
		return nil, nil
	}
	granted = true
	f.mInflight.Add(1)
	return ctx, func() {
		f.mInflight.Add(-1)
		<-f.running
		cancel()
		leave()
	}
}

func (f *Front) handleSeeds(w http.ResponseWriter, r *http.Request) {
	var (
		req SeedsRequest
		q   imm.Query
	)
	ctx, release := f.admit(w, r, seedsBodyCap(f.cfg.NumVertices), &req, func() error {
		if err := f.be.Check(req.Overrides); err != nil {
			return err
		}
		if req.K < 1 || req.K > f.cfg.KMax {
			return fmt.Errorf("k = %d, want 1 <= k <= kMax = %d", req.K, f.cfg.KMax)
		}
		q = req.Query(f.cfg.Defaults)
		return q.Validate(f.cfg.NumVertices)
	})
	if release == nil {
		return
	}
	defer release()

	var st *stream
	var onSeed func(i int, v graph.Vertex, gain int64)
	if req.Stream {
		st = &stream{w: w}
		onSeed = func(i int, v graph.Vertex, gain int64) { st.line(StreamedSeed{i, v, gain}) }
	}
	resp, err := f.be.Seeds(ctx, req.Overrides, q, onSeed)
	switch {
	case err != nil && st != nil && st.enc != nil:
		// The 200 went out with the seed lines: the error is the last line.
		f.status(err)
		st.line(errorBody{err.Error()})
		return
	case err != nil:
		f.Error(w, err)
		return
	}
	if q.Budgeted() {
		f.mBudgeted.Inc()
	}
	if len(q.Audience) > 0 {
		f.mTargeted.Inc()
	}
	if len(q.Blocked) > 0 {
		f.mBlocked.Inc()
	}
	resp.K, resp.KMax = q.K, f.cfg.KMax
	if q.Plain() {
		resp.Gains, resp.Eligible, resp.SpentBudget = nil, 0, 0
	}
	if st != nil {
		st.line(resp)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (f *Front) handleSpread(w http.ResponseWriter, r *http.Request) {
	var req SpreadRequest
	ctx, release := f.admit(w, r, maxBody, &req, func() error {
		if err := f.be.Check(req.Overrides); err != nil {
			return err
		}
		if len(req.Seeds) == 0 {
			return errors.New("spread needs at least one seed")
		}
		if err := inRange("seed", req.Seeds, f.cfg.NumVertices); err != nil {
			return err
		}
		return inRange("audience", req.Audience, f.cfg.NumVertices)
	})
	if release == nil {
		return
	}
	defer release()
	resp, err := f.be.Spread(ctx, req.Overrides, req.Seeds, req.Audience)
	if err != nil {
		f.Error(w, err)
		return
	}
	f.mSpread.Inc()
	WriteJSON(w, http.StatusOK, resp)
}

func inRange(what string, vs []graph.Vertex, n int) error {
	for _, v := range vs {
		if int(v) >= n {
			return fmt.Errorf("%s vertex %d out of range (n = %d)", what, v, n)
		}
	}
	return nil
}

func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body, ok := f.be.Health()
	if f.Draining.Load() {
		body["status"], ok = "draining", false
	}
	status := http.StatusOK
	if !ok {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, body)
}

// stream writes an NDJSON answer: a flushed line per committed seed, then
// the summary. The 200 goes out with the first line.
type stream struct {
	w   http.ResponseWriter
	enc *json.Encoder
}

func (s *stream) line(v any) {
	if s.enc == nil {
		s.w.Header().Set("Content-Type", "application/x-ndjson")
		s.w.WriteHeader(http.StatusOK)
		s.enc = json.NewEncoder(s.w)
	}
	s.enc.Encode(v)
	if fl, ok := s.w.(http.Flusher); ok {
		fl.Flush()
	}
}
