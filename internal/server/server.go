package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"influmax/internal/cluster"
	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
	"influmax/internal/par"
)

// Config configures a seed-serving Server. Graph, KMax and Epsilon are
// required; everything else has serving-grade defaults.
type Config struct {
	// Graph is the loaded graph all sketches are sampled from.
	Graph *graph.Graph
	// Model is the default diffusion model for queries that do not name
	// one.
	Model diffuse.Model
	// Epsilon is the default accuracy parameter sketches are sized for.
	Epsilon float64
	// KMax bounds the seed-set size a sketch serves: queries for any
	// k <= KMax run over the same theta samples.
	KMax int
	// Seed is the default sampling seed.
	Seed uint64
	// Workers is the thread count for sampling and per-query selection
	// (<= 0 uses all cores).
	Workers int
	// Schedule is the sampling-loop schedule for sketch builds (dynamic
	// work-stealing by default; sketch content does not depend on it).
	Schedule imm.Schedule
	// Kernel is the sampling kernel for sketch builds (fused CSR frontier
	// batches by default; sketch content does not depend on it — the two
	// kernels are byte-identical in the per-sample RNG mode builds use).
	Kernel imm.Kernel
	// Store is the RRR store kind sketches are built and served under
	// (flat identity labeling by default; imm.StoreCoded serves from the
	// frequency-relabeled byte-coded store — same query seeds, >= 3x
	// smaller resident sketch).
	Store imm.StoreKind
	// MaxConcurrent bounds queries executing at once (the worker pool;
	// <= 0 defaults to 2).
	MaxConcurrent int
	// MaxQueue bounds queries waiting for a pool slot; one more query past
	// MaxConcurrent+MaxQueue is answered 429 + Retry-After instead of
	// queueing (<= 0 defaults to 16).
	MaxQueue int
	// QueryTimeout bounds one request's total wait: pool admission plus
	// sketch population. A query that cannot start in time gets 503 +
	// Retry-After while any build it triggered keeps running (<= 0
	// defaults to 60s).
	QueryTimeout time.Duration
	// RetryAfter is the hint stamped on 429/503 responses (<= 0 defaults
	// to 1s).
	RetryAfter time.Duration
	// MaxSketches bounds resident sketches across distinct query
	// configurations; the oldest finished sketch is evicted past it
	// (<= 0 defaults to 4).
	MaxSketches int
	// Metrics receives server and engine instrumentation; a fresh registry
	// is created when nil (exposed either way at /v1/metrics).
	Metrics *metrics.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Sketch, when non-nil, is a prebuilt (typically snapshot-loaded)
	// sketch installed at startup — the warm start. Its graph digest must
	// match Graph. In dynamic mode the sketch's delta log is replayed to
	// restore the mutated graph; outside it, a sketch carrying a delta log
	// is rejected (its samples no longer describe Graph).
	Sketch *Sketch
	// Dynamic enables dynamic-graph mode: the server owns one incremental
	// sketch over Graph, serves every query from it, and accepts edge
	// mutations at POST /v1/graph/delta. Per-query model/epsilon/seed
	// overrides are rejected in this mode — there is one sketch, tracking
	// one configuration (see DESIGN.md §15).
	Dynamic bool
	// WeightPolicy tells dynamic mode how edge weights are re-derived
	// after each mutation batch (imm.WeightsExplicit by default;
	// imm.WeightsWC recomputes weighted-cascade weights from the new
	// in-degrees).
	WeightPolicy imm.WeightPolicy
	// MaxDeltaOps bounds the edge ops accepted in one delta batch (<= 0
	// defaults to 4096).
	MaxDeltaOps int
	// DefaultBudget, DefaultAudience and DefaultBlocked are query-shape
	// defaults (the -budget/-audience/-blocked immserve flags): a
	// /v1/seeds request that leaves the corresponding field absent
	// inherits them. Zero/nil means plain top-k, exactly as before.
	DefaultBudget   float64
	DefaultAudience []graph.Vertex
	DefaultBlocked  []graph.Vertex
	// ClusterShard, when non-nil, runs this server as one shard replica of
	// a router-fronted fleet (internal/cluster): the shard API is mounted
	// (POST /v1/shard/op, GET /v1/shard/info, GET /v1/snapshot for peer
	// bootstrap) and POST /v1/seeds is rejected with a pointer to the
	// router — a shard holds a slice of the theta samples, so answering
	// seed queries locally would be silently wrong. The shard's graph
	// digest must match Graph; Dynamic mode and shard mode are mutually
	// exclusive.
	ClusterShard *cluster.Shard
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = par.DefaultWorkers()
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 60 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxSketches <= 0 {
		c.MaxSketches = 4
	}
	if c.MaxDeltaOps <= 0 {
		c.MaxDeltaOps = 4096
	}
	return c
}

// Server is the resident sketch-serving subsystem. Create one with New,
// mount Handler on any mux or listener (or use Start), and stop it with
// Shutdown, which drains in-flight queries.
type Server struct {
	cfg    Config
	digest uint64
	reg    *metrics.Registry
	cache  *sketchCache

	// Admission: admitted counts running+waiting queries (bounded by
	// admitLimit); running is the worker pool.
	admitLimit int64
	admitted   atomic.Int64
	running    chan struct{}

	draining atomic.Bool
	mux      *http.ServeMux
	httpSrv  *http.Server

	// Dynamic mode: dynMu serializes mutations to dyn; dynSk holds the
	// immutable query-ready view, republished after every batch, that
	// queries load lock-free. A query therefore sees the sketch as of
	// some fully applied epoch — never a half-applied batch (the bounded
	// staleness contract).
	dynMu sync.Mutex
	dyn   *imm.DynamicSketch
	dynSk atomic.Pointer[Sketch]

	// Delta coalescing: handlers enqueue decoded batches under deltaMu,
	// then race for dynMu; whoever wins drains the whole queue in one
	// repair pass (see drainDeltasLocked).
	deltaMu      sync.Mutex
	deltaPending []*pendingDelta

	mQueries, mRejected, mTimeouts, mErrors, mBuilds, mDeltaBatches, mCoalesced *metrics.Counter
	mQueryBudgeted, mQueryTargeted, mQueryBlocked, mQuerySpread                 *metrics.Counter
	mInflight, mSketches, mQueueDepth                                           *metrics.Gauge
	mLatency                                                                    *metrics.Histogram

	// testQueryHook, when set, runs inside the seeds handler after pool
	// admission — the seam load and drain tests use to hold a query in
	// flight deterministically.
	testQueryHook func()
}

// New validates cfg, prewarms the default sketch slot if cfg.Sketch is
// given, and returns a ready Server (no listener yet).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Graph == nil {
		return nil, errors.New("server: Config.Graph is required")
	}
	n := cfg.Graph.NumVertices()
	if n < 2 {
		return nil, errors.New("server: graph must have at least 2 vertices")
	}
	if cfg.KMax < 1 || cfg.KMax > n {
		return nil, fmt.Errorf("server: kMax = %d, want 1 <= kMax <= %d", cfg.KMax, n)
	}
	if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
		return nil, fmt.Errorf("server: epsilon = %v, want 0 < eps < 1", cfg.Epsilon)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		cfg:            cfg,
		digest:         cfg.Graph.Digest(),
		reg:            reg,
		cache:          newSketchCache(cfg.MaxSketches),
		admitLimit:     int64(cfg.MaxConcurrent + cfg.MaxQueue),
		running:        make(chan struct{}, cfg.MaxConcurrent),
		mQueries:       reg.Counter("server/queries"),
		mDeltaBatches:  reg.Counter("server/delta-batches"),
		mCoalesced:     reg.Counter("server/delta-coalesced"),
		mRejected:      reg.Counter("server/rejected"),
		mTimeouts:      reg.Counter("server/timeouts"),
		mErrors:        reg.Counter("server/errors"),
		mBuilds:        reg.Counter("server/sketch-builds"),
		mQueryBudgeted: reg.Counter("server/query-budgeted"),
		mQueryTargeted: reg.Counter("server/query-targeted"),
		mQueryBlocked:  reg.Counter("server/query-blocked"),
		mQuerySpread:   reg.Counter("server/query-spread"),
		mInflight:      reg.Gauge("server/inflight"),
		mSketches:      reg.Gauge("server/sketches"),
		mQueueDepth:    reg.Gauge("server/queue-depth"),
		mLatency:       reg.Histogram("server/query-us"),
	}
	if cfg.Sketch != nil && cfg.Sketch.Key.GraphDigest != s.digest {
		return nil, fmt.Errorf("server: provided sketch is for graph %016x, loaded graph is %016x",
			cfg.Sketch.Key.GraphDigest, s.digest)
	}
	if sh := cfg.ClusterShard; sh != nil {
		if cfg.Dynamic {
			return nil, errors.New("server: shard mode and dynamic mode are mutually exclusive (shards serve static sketches)")
		}
		if sh.Meta.GraphDigest != s.digest {
			return nil, fmt.Errorf("server: shard was sampled from graph %016x, loaded graph is %016x",
				sh.Meta.GraphDigest, s.digest)
		}
	}
	if cfg.Dynamic {
		if err := s.initDynamic(); err != nil {
			return nil, err
		}
	} else if cfg.Sketch != nil {
		if len(cfg.Sketch.Deltas) > 0 {
			return nil, errors.New("server: snapshot carries a delta log; its samples describe the mutated graph, serve it with Dynamic mode")
		}
		s.cache.put(cfg.Sketch)
		s.mSketches.Set(int64(s.cache.len()))
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/seeds", s.handleSeeds)
	s.mux.HandleFunc("POST /v1/spread", s.handleSpread)
	s.mux.HandleFunc("POST /v1/graph/delta", s.handleDelta)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	if sh := cfg.ClusterShard; sh != nil {
		s.mux.HandleFunc("POST "+cluster.ShardOpPath, sh.ServeOp)
		s.mux.HandleFunc("GET /v1/shard/info", sh.ServeInfo)
		s.mux.HandleFunc("GET /v1/snapshot", sh.ServeSnapshot)
	}
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the server's HTTP handler (for mounting under httptest
// or an external mux/listener).
func (s *Server) Handler() http.Handler { return s.mux }

// DefaultKey is the sketch key of the server's configured defaults.
func (s *Server) DefaultKey() SketchKey {
	return SketchKey{
		GraphDigest: s.digest,
		Model:       s.cfg.Model,
		Epsilon:     s.cfg.Epsilon,
		KMax:        s.cfg.KMax,
		Seed:        s.cfg.Seed,
	}
}

// Prewarm synchronously populates the default sketch (sampling if no
// snapshot was installed), so the first query does not pay the build. A
// dynamic server is built warm by New; Prewarm is then a no-op.
func (s *Server) Prewarm(ctx context.Context) error {
	if s.cfg.Dynamic {
		return nil
	}
	_, _, err := s.sketchFor(ctx, s.DefaultKey())
	return err
}

// Start listens on addr and serves until Shutdown; it returns the bound
// address (useful with ":0").
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.httpSrv = &http.Server{Handler: s.mux}
	go s.httpSrv.Serve(ln)
	return ln.Addr(), nil
}

// Shutdown drains the server: health flips to 503 (so load balancers stop
// routing), no new queries are admitted, and in-flight queries run to
// completion bounded by ctx. After a Start, the listener closes too.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.httpSrv != nil {
		return s.httpSrv.Shutdown(ctx)
	}
	// Handler-only mode (tests, embedding): wait for in-flight queries.
	for s.admitted.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// seedsRequest is the POST /v1/seeds body. k is required; the rest
// defaults to the server configuration (overriding any of them selects —
// and, on first use, populates — a different sketch).
type seedsRequest struct {
	K       int      `json:"k"`
	Epsilon *float64 `json:"epsilon,omitempty"`
	Model   *string  `json:"model,omitempty"`
	Seed    *uint64  `json:"seed,omitempty"`
	// Query-diversity fields (DESIGN.md §17), all optional. Costs
	// (per-vertex, length n) with Budget select cost-aware greedy (Budget
	// alone implies unit costs); Audience restricts coverage to samples
	// rooted in it; Blocked excludes a rival's seeds and their coverage.
	// Absent fields inherit the server's Default* configuration; an
	// all-plain request keeps the exact historical response shape.
	Costs    []float64       `json:"costs,omitempty"`
	Budget   *float64        `json:"budget,omitempty"`
	Audience *[]graph.Vertex `json:"audience,omitempty"`
	Blocked  *[]graph.Vertex `json:"blocked,omitempty"`
}

// seedsResponse is the POST /v1/seeds reply.
type seedsResponse struct {
	K                int                `json:"k"`
	KMax             int                `json:"kMax"`
	Seeds            []graph.Vertex     `json:"seeds"`
	CoverageFraction float64            `json:"coverageFraction"`
	EstimatedSpread  float64            `json:"estimatedSpread"`
	Theta            int64              `json:"theta"`
	Cached           bool               `json:"cached"`
	Source           string             `json:"source"`
	DeltaEpoch       uint64             `json:"deltaEpoch,omitempty"`
	Report           *metrics.RunReport `json:"report"`
	// Query-diversity extras, present only on non-plain queries so plain
	// responses keep their exact historical shape.
	Gains       []int64 `json:"gains,omitempty"`
	Eligible    int64   `json:"eligible,omitempty"`
	SpentBudget float64 `json:"spentBudget,omitempty"`
}

// spreadRequest is the POST /v1/spread body: estimate the influence of a
// caller-supplied seed set over the resident sketch's samples, optionally
// restricted to audience-rooted samples. The epsilon/model/seed overrides
// select (and on first use populate) a sketch exactly like /v1/seeds.
type spreadRequest struct {
	Seeds    []graph.Vertex `json:"seeds"`
	Audience []graph.Vertex `json:"audience,omitempty"`
	Epsilon  *float64       `json:"epsilon,omitempty"`
	Model    *string        `json:"model,omitempty"`
	Seed     *uint64        `json:"seed,omitempty"`
}

// spreadResponse is the POST /v1/spread reply. EstimatedSpread is
// n * covered / theta — with an audience, the expected number of audience
// members influenced.
type spreadResponse struct {
	Covered          int64   `json:"covered"`
	Eligible         int64   `json:"eligible"`
	CoverageFraction float64 `json:"coverageFraction"`
	EstimatedSpread  float64 `json:"estimatedSpread"`
	Theta            int64   `json:"theta"`
	Cached           bool    `json:"cached"`
	Source           string  `json:"source"`
	DeltaEpoch       uint64  `json:"deltaEpoch,omitempty"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	if status >= 500 {
		s.mErrors.Inc()
	}
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeBackoff answers an overload/timeout condition with the Retry-After
// hint.
func (s *Server) writeBackoff(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// sketchFor resolves (building at most once, concurrently with other
// keys) the sketch for key.
func (s *Server) sketchFor(ctx context.Context, key SketchKey) (*Sketch, bool, error) {
	sk, hit, err := s.cache.get(ctx, key, func() (*Sketch, error) {
		s.mBuilds.Inc()
		return BuildSketch(s.cfg.Graph, key, s.cfg.Workers, s.cfg.Schedule, s.cfg.Kernel, s.cfg.Store, s.reg)
	})
	s.mSketches.Set(int64(s.cache.len()))
	return sk, hit, err
}

// admit is the front half every query handler shares: refuse while
// draining, in shard mode or saturated; decode the JSON body into req; run
// the handler's own validation (an error is a 400); then wait, bounded by
// QueryTimeout and the client hanging up, for a worker-pool slot. It
// returns the request context and the release the handler must defer —
// everything admitted is counted until then, so Shutdown can drain — or a
// nil release after having written the refusal.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, req any, validate func() error) (context.Context, func()) {
	if s.draining.Load() {
		s.writeBackoff(w, http.StatusServiceUnavailable, "draining")
		return nil, nil
	}
	if sh := s.cfg.ClusterShard; sh != nil {
		s.writeError(w, http.StatusBadRequest,
			"this replica serves shard %d of %d; POST %s to the cluster router instead",
			sh.ShardIdx, sh.ShardCount, r.URL.Path)
		return nil, nil
	}
	// The queue-depth gauge tracks admitted (running + waiting) so
	// saturation is visible in /v1/metrics before 429s start.
	adm := s.admitted.Add(1)
	leave := func() { s.mQueueDepth.Set(s.admitted.Add(-1)) }
	if adm > s.admitLimit {
		leave()
		s.mRejected.Inc()
		s.writeBackoff(w, http.StatusTooManyRequests,
			"saturated: %d queries admitted (limit %d running + %d queued)",
			s.admitLimit, s.cfg.MaxConcurrent, s.cfg.MaxQueue)
		return nil, nil
	}
	s.mQueueDepth.Set(adm)
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	err := json.NewDecoder(r.Body).Decode(req)
	if err != nil {
		err = fmt.Errorf("bad request body: %v", err)
	} else {
		err = validate()
	}
	if err != nil {
		leave()
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return nil, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	select {
	case s.running <- struct{}{}:
	case <-ctx.Done():
		s.mTimeouts.Inc()
		s.writeBackoff(w, http.StatusServiceUnavailable, "queue wait exceeded: %v", ctx.Err())
		cancel()
		leave()
		return nil, nil
	}
	s.mInflight.Add(1)
	if s.testQueryHook != nil {
		s.testQueryHook()
	}
	return ctx, func() {
		s.mInflight.Add(-1)
		<-s.running
		cancel()
		leave()
	}
}

// keyFor applies a request's model/epsilon/seed overrides to the default
// sketch key (overriding any of them selects — and, on first use,
// populates — a different sketch).
func (s *Server) keyFor(model *string, epsilon *float64, seed *uint64) (SketchKey, error) {
	key := s.DefaultKey()
	if s.cfg.Dynamic && (model != nil || epsilon != nil || seed != nil) {
		return key, errors.New("dynamic mode serves one sketch configuration; model/epsilon/seed overrides are not available")
	}
	if model != nil {
		m, err := diffuse.ParseModel(*model)
		if err != nil {
			return key, err
		}
		key.Model = m
	}
	if epsilon != nil {
		if *epsilon <= 0 || *epsilon >= 1 {
			return key, fmt.Errorf("epsilon = %v, want 0 < eps < 1", *epsilon)
		}
		key.Epsilon = *epsilon
	}
	if seed != nil {
		key.Seed = *seed
	}
	return key, nil
}

// resolveSketch returns the sketch a query runs over: the latest
// published epoch in dynamic mode (a lock-free load), else the cached or
// freshly built sketch for key. ok is false after a refusal was written.
func (s *Server) resolveSketch(ctx context.Context, w http.ResponseWriter, key SketchKey) (sk *Sketch, hit, ok bool) {
	if s.cfg.Dynamic {
		return s.dynSk.Load(), true, true
	}
	sk, hit, err := s.sketchFor(ctx, key)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.mTimeouts.Inc()
		s.writeBackoff(w, http.StatusServiceUnavailable, "sketch for (%s) still building: %v", key, err)
		return nil, false, false
	}
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "building sketch: %v", err)
		return nil, false, false
	}
	return sk, hit, true
}

// handleSeeds is the query path: admission control, sketch resolution
// (cache + single-flight), copy-on-read indexed selection, report.
func (s *Server) handleSeeds(w http.ResponseWriter, r *http.Request) {
	var (
		req seedsRequest
		key SketchKey
		q   imm.Query
	)
	ctx, release := s.admit(w, r, &req, func() (err error) {
		if key, err = s.keyFor(req.Model, req.Epsilon, req.Seed); err != nil {
			return err
		}
		if req.K < 1 || req.K > key.KMax {
			return fmt.Errorf("k = %d, want 1 <= k <= kMax = %d", req.K, key.KMax)
		}
		// Resolve the query shape: explicit fields win, absent ones inherit
		// the server defaults (an explicit empty value clears a default).
		q = imm.Query{K: req.K, Costs: req.Costs, Budget: s.cfg.DefaultBudget,
			Audience: s.cfg.DefaultAudience, Blocked: s.cfg.DefaultBlocked}
		if req.Budget != nil {
			q.Budget = *req.Budget
		}
		if req.Audience != nil {
			q.Audience = *req.Audience
		}
		if req.Blocked != nil {
			q.Blocked = *req.Blocked
		}
		return q.Validate(s.cfg.Graph.NumVertices())
	})
	if release == nil {
		return
	}
	defer release()
	sk, hit, ok := s.resolveSketch(ctx, w, key)
	if !ok {
		return
	}

	start := time.Now()
	qr, err := sk.QueryEx(q, s.cfg.Workers)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dur := time.Since(start)
	s.mQueries.Inc()
	s.mLatency.Observe(dur.Microseconds())
	if q.Budgeted() {
		s.mQueryBudgeted.Inc()
	}
	if len(q.Audience) > 0 {
		s.mQueryTargeted.Inc()
	}
	if len(q.Blocked) > 0 {
		s.mQueryBlocked.Inc()
	}

	rep := sk.report(req.K, s.cfg.Workers, dur, qr.Seeds, qr.Covered)
	resp := seedsResponse{
		K:                req.K,
		KMax:             sk.Key.KMax,
		Seeds:            qr.Seeds,
		CoverageFraction: rep.CoverageFraction,
		EstimatedSpread:  rep.EstimatedSpread,
		Theta:            sk.Theta,
		Cached:           hit,
		Source:           sk.Source,
		DeltaEpoch:       sk.DeltaEpoch,
		Report:           rep,
	}
	if !q.Plain() {
		// Plain responses keep their exact historical shape.
		resp.Gains = qr.Gains
		resp.Eligible = qr.Eligible
		resp.SpentBudget = qr.SpentBudget
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSpread is the seed-set estimation path: same admission control
// and sketch resolution as /v1/seeds, then a stateless coverage count
// over the resident samples (no greedy, no purging).
func (s *Server) handleSpread(w http.ResponseWriter, r *http.Request) {
	var (
		req spreadRequest
		key SketchKey
	)
	ctx, release := s.admit(w, r, &req, func() (err error) {
		if key, err = s.keyFor(req.Model, req.Epsilon, req.Seed); err != nil {
			return err
		}
		if len(req.Seeds) == 0 {
			return errors.New("spread needs at least one seed")
		}
		n := s.cfg.Graph.NumVertices()
		for _, v := range req.Seeds {
			if int(v) >= n {
				return fmt.Errorf("seed vertex %d out of range (n = %d)", v, n)
			}
		}
		for _, v := range req.Audience {
			if int(v) >= n {
				return fmt.Errorf("audience vertex %d out of range (n = %d)", v, n)
			}
		}
		return nil
	})
	if release == nil {
		return
	}
	defer release()
	sk, hit, ok := s.resolveSketch(ctx, w, key)
	if !ok {
		return
	}

	start := time.Now()
	covered, eligible, err := sk.Spread(req.Seeds, req.Audience)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dur := time.Since(start)
	s.mQueries.Inc()
	s.mQuerySpread.Inc()
	s.mLatency.Observe(dur.Microseconds())

	resp := spreadResponse{
		Covered:    covered,
		Eligible:   eligible,
		Theta:      sk.Theta,
		Cached:     hit,
		Source:     sk.Source,
		DeltaEpoch: sk.DeltaEpoch,
	}
	if c := sk.Col.Count(); c > 0 {
		resp.CoverageFraction = float64(covered) / float64(c)
	}
	resp.EstimatedSpread = resp.CoverageFraction * float64(sk.Col.NumVertices())
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz reports liveness: 200 while serving, 503 while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics exposes the registry snapshot as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	if snap == nil {
		snap = &metrics.Snapshot{}
	}
	writeJSON(w, http.StatusOK, snap)
}
