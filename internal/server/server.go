package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"influmax/internal/cluster"
	"influmax/internal/diffuse"
	"influmax/internal/front"
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
	// (<= 0 uses all cores). Sketch builds run in PerSample mode, so the
	// sketch content does not depend on it.
	Workers int
	// Store picks the labeling of the resident sketch, which is byte-coded
	// under either kind: imm.StoreFlat (the default) codes samples under
	// identity labels, imm.StoreCoded under the frequency relabeling of
	// DESIGN.md §13.1. The seeds are the same.
	Store imm.StoreKind
	// MaxConcurrent, MaxQueue, QueryTimeout and RetryAfter configure the
	// front's admission (internal/front): queries running at once (<= 0:
	// 2), waiting past that before 429 + Retry-After (<= 0: 16), the bound
	// on one query's slot wait plus sketch population before a 503 — any
	// build it triggered keeps running (<= 0: 60s) — and the Retry-After
	// hint (<= 0: 1s).
	MaxConcurrent int
	MaxQueue      int
	QueryTimeout  time.Duration
	RetryAfter    time.Duration
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
	// sketch installed at startup — the warm start. Its key must equal the
	// configuration's (Server.DefaultKey: graph digest, model, epsilon,
	// KMax and seed), in both modes. In dynamic mode the sketch's delta
	// log is replayed to restore the mutated graph; outside it, a sketch
	// carrying a delta log is rejected (its samples no longer describe
	// Graph).
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
	// DefaultBudget, DefaultAudience and DefaultBlocked are the query
	// shape a /v1/seeds request inherits for an absent field.
	DefaultBudget   float64
	DefaultAudience []graph.Vertex
	DefaultBlocked  []graph.Vertex
	// ClusterShard, when non-nil, runs this server as one shard replica of
	// a router-fronted fleet (internal/cluster): the shard API is mounted
	// and queries are refused with a pointer to the router, since a slice
	// of the samples would answer them silently wrong. Its graph digest
	// must match Graph; shard mode excludes Dynamic mode.
	ClusterShard *cluster.Shard
}

// withDefaults resolves zero values; the front resolves its own
// (MaxConcurrent, MaxQueue, QueryTimeout, RetryAfter).
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = par.DefaultWorkers()
	}
	if c.MaxSketches <= 0 {
		c.MaxSketches = 4
	}
	if c.MaxDeltaOps <= 0 {
		c.MaxDeltaOps = 4096
	}
	return c
}

// Server is the resident sketch-serving subsystem, the local backend of a
// front.Front. Create one with New, mount Handler (or use Start), and
// stop it with Shutdown, which drains in-flight queries.
type Server struct {
	cfg    Config
	digest uint64
	reg    *metrics.Registry
	cache  *sketchCache
	front  *front.Front

	// The front's admission state and instruments, aliased for the delta
	// route and the load tests.
	admitted             *atomic.Int64
	draining             *atomic.Bool
	mRejected, mTimeouts *metrics.Counter
	mQueueDepth          *metrics.Gauge

	// Dynamic mode: dynMu serializes mutations to dyn; dynSk holds the
	// immutable view, republished after every batch, that queries load
	// lock-free — never a half-applied batch.
	dynMu sync.Mutex
	dyn   *imm.DynamicSketch
	dynSk atomic.Pointer[Sketch]

	// Delta coalescing: handlers enqueue decoded batches under deltaMu,
	// then race for dynMu; whoever wins drains the whole queue in one
	// repair pass (see drainDeltasLocked).
	deltaMu      sync.Mutex
	deltaPending []*pendingDelta

	mQueries, mBuilds, mTrajBuilds *metrics.Counter
	mDeltaBatches, mCoalesced      *metrics.Counter
	mSketches                      *metrics.Gauge
	mLatency                       *metrics.Histogram

	// testQueryHook, when set, runs at the start of every admitted query —
	// the seam load and drain tests use to hold a query in flight
	// deterministically.
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
		cfg:           cfg,
		digest:        cfg.Graph.Digest(),
		reg:           reg,
		cache:         newSketchCache(cfg.MaxSketches),
		mQueries:      reg.Counter("server/queries"),
		mDeltaBatches: reg.Counter("server/delta-batches"),
		mCoalesced:    reg.Counter("server/delta-coalesced"),
		mRejected:     reg.Counter("server/rejected"),
		mTimeouts:     reg.Counter("server/timeouts"),
		mBuilds:       reg.Counter("server/sketch-builds"),
		mTrajBuilds:   reg.Counter("server/trajectory-builds"),
		mSketches:     reg.Gauge("server/sketches"),
		mQueueDepth:   reg.Gauge("server/queue-depth"),
		mLatency:      reg.Histogram("server/query-us"),
	}
	if cfg.Sketch != nil && cfg.Sketch.Key != s.DefaultKey() {
		return nil, fmt.Errorf("server: provided sketch was sampled with (%s), the configuration asks for (%s)",
			cfg.Sketch.Key, s.DefaultKey())
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
	s.front = front.New(front.Config{
		KMax: cfg.KMax, NumVertices: n, Name: "server", Metrics: reg,
		MaxConcurrent: cfg.MaxConcurrent, MaxQueue: cfg.MaxQueue,
		QueryTimeout: cfg.QueryTimeout, RetryAfter: cfg.RetryAfter,
		Defaults: imm.Query{Budget: cfg.DefaultBudget, Audience: cfg.DefaultAudience, Blocked: cfg.DefaultBlocked},
	}, localBackend{s})
	s.admitted, s.draining = &s.front.Admitted, &s.front.Draining
	mux := s.front.Mux
	mux.HandleFunc("POST /v1/graph/delta", s.handleDelta)
	if sh := cfg.ClusterShard; sh != nil {
		mux.HandleFunc("POST "+cluster.ShardOpPath, sh.ServeOp)
		mux.HandleFunc("GET /v1/shard/info", sh.ServeInfo)
		mux.HandleFunc("GET /v1/snapshot", sh.ServeSnapshot)
	}
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.front.Mux }

// Start listens on addr and serves until Shutdown; it returns the bound
// address.
func (s *Server) Start(addr string) (net.Addr, error) { return s.front.Start(addr) }

// Shutdown drains the server (see front.Front.Shutdown).
func (s *Server) Shutdown(ctx context.Context) error { return s.front.Shutdown(ctx) }

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

// sketchFor resolves (building at most once, concurrently with other
// keys) the sketch for key.
func (s *Server) sketchFor(ctx context.Context, key SketchKey) (*Sketch, bool, error) {
	sk, hit, err := s.cache.get(ctx, key, func() (*Sketch, error) {
		s.mBuilds.Inc()
		return BuildSketch(s.cfg.Graph, key, s.cfg.Workers, s.cfg.Store, s.reg)
	})
	s.mSketches.Set(int64(s.cache.len()))
	return sk, hit, err
}

// keyFor applies a request's model/epsilon/seed overrides to the default
// sketch key (overriding any of them selects — and, on first use,
// populates — a different sketch).
func (s *Server) keyFor(o front.Overrides) (SketchKey, error) {
	key := s.DefaultKey()
	if s.cfg.Dynamic && o.Any() {
		return key, front.ErrFixedSketch
	}
	if o.Model != nil {
		m, err := diffuse.ParseModel(*o.Model)
		if err != nil {
			return key, err
		}
		key.Model = m
	}
	if o.Epsilon != nil {
		if *o.Epsilon <= 0 || *o.Epsilon >= 1 {
			return key, fmt.Errorf("epsilon = %v, want 0 < eps < 1", *o.Epsilon)
		}
		key.Epsilon = *o.Epsilon
	}
	if o.Seed != nil {
		key.Seed = *o.Seed
	}
	return key, nil
}

// localBackend answers the front's queries from the server's sketches.
type localBackend struct{ *Server }

// Check refuses queries on a shard replica — its slice of the samples
// would give silently wrong answers — and vets the overrides.
func (b localBackend) Check(o front.Overrides) error {
	if sh := b.cfg.ClusterShard; sh != nil {
		return fmt.Errorf("this replica serves shard %d of %d; send queries to the cluster router instead",
			sh.ShardIdx, sh.ShardCount)
	}
	_, err := b.keyFor(o)
	return err
}

func (b localBackend) Health() (map[string]any, bool) { return map[string]any{"status": "ok"}, true }

// sketch returns the sketch a query runs over: the latest published epoch
// in dynamic mode (a lock-free load), else the cached or freshly built
// sketch for the overrides' key.
func (b localBackend) sketch(ctx context.Context, o front.Overrides) (*Sketch, bool, error) {
	if b.testQueryHook != nil {
		b.testQueryHook()
	}
	if b.cfg.Dynamic {
		return b.dynSk.Load(), true, nil
	}
	key, err := b.keyFor(o)
	if err != nil {
		return nil, false, front.BadRequest(err)
	}
	sk, hit, err := b.sketchFor(ctx, key)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return nil, false, front.Unavailable(fmt.Errorf("sketch for (%s) still building: %w", key, err))
	}
	if err != nil {
		return nil, false, fmt.Errorf("building sketch: %w", err)
	}
	return sk, hit, nil
}

// Seeds runs copy-on-read indexed selection over the resolved sketch and
// reports it.
func (b localBackend) Seeds(ctx context.Context, o front.Overrides, q imm.Query, onSeed func(int, graph.Vertex, int64)) (*front.SeedsResponse, error) {
	sk, hit, err := b.sketch(ctx, o)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	qr, err := b.answer(sk, q, onSeed)
	if err != nil {
		return nil, front.BadRequest(err)
	}
	dur := time.Since(start)
	b.mQueries.Inc()
	b.mLatency.Observe(dur.Microseconds())
	rep := sk.report(q.K, b.cfg.Workers, dur, qr.Seeds, qr.Covered)
	return &front.SeedsResponse{
		Seeds:            qr.Seeds,
		CoverageFraction: rep.CoverageFraction,
		EstimatedSpread:  rep.EstimatedSpread,
		Theta:            sk.Theta,
		Local:            &front.Local{Cached: hit, Source: sk.Source, DeltaEpoch: sk.DeltaEpoch, Report: rep},
		Gains:            qr.Gains,
		Eligible:         qr.Eligible,
		SpentBudget:      qr.SpentBudget,
	}, nil
}

// answer serves a Prefix q from the sketch's trajectory in O(k) and any
// other shape with a fresh selection.
func (b localBackend) answer(sk *Sketch, q imm.Query, onSeed func(int, graph.Vertex, int64)) (*imm.QueryResult, error) {
	if q.Prefix() {
		if t, err := sk.trajectory(b.cfg.Workers, b.mTrajBuilds); err == nil {
			if qr, ok := t.Answer(q, onSeed); ok {
				return qr, nil
			}
		}
	}
	return sk.greedy(q, b.cfg.Workers, onSeed)
}

// Spread is a stateless coverage count over the resolved sketch's samples
// (no greedy, no purging).
func (b localBackend) Spread(ctx context.Context, o front.Overrides, seeds, audience []graph.Vertex) (*front.SpreadResponse, error) {
	sk, hit, err := b.sketch(ctx, o)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	covered, eligible, err := sk.Spread(seeds, audience)
	if err != nil {
		return nil, front.BadRequest(err)
	}
	b.mQueries.Inc()
	b.mLatency.Observe(time.Since(start).Microseconds())
	resp := &front.SpreadResponse{
		Covered:  covered,
		Eligible: eligible,
		Theta:    sk.Theta,
		Local:    &front.Local{Cached: hit, Source: sk.Source, DeltaEpoch: sk.DeltaEpoch},
	}
	if c := sk.Col.Count(); c > 0 {
		resp.CoverageFraction = float64(covered) / float64(c)
	}
	resp.EstimatedSpread = resp.CoverageFraction * float64(sk.Col.NumVertices())
	return resp, nil
}
