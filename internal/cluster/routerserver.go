package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"influmax/internal/graph"
	"influmax/internal/metrics"
	"influmax/internal/trace"
)

// RouterServerConfig configures the router's HTTP front.
type RouterServerConfig struct {
	// MaxConcurrent bounds queries executing at once (<= 0: 4); MaxQueue
	// bounds queries waiting past that before 429s (<= 0: 16).
	MaxConcurrent int
	MaxQueue      int
	// RetryAfter is the hint stamped on 429/503 responses (<= 0: 1s).
	RetryAfter time.Duration
}

// RouterServer is the HTTP front of a Router: POST /v1/seeds (JSON, with
// an NDJSON streaming mode for partial results), GET /healthz, GET
// /v1/metrics — the same surface shape as a single immserve, so clients
// move from one replica to a fleet by changing the address.
type RouterServer struct {
	rt  *Router
	cfg RouterServerConfig
	reg *metrics.Registry

	admitLimit int64
	admitted   atomic.Int64
	running    chan struct{}
	draining   atomic.Bool

	mux     *http.ServeMux
	httpSrv *http.Server

	mRejected *metrics.Counter
}

// NewRouterServer wraps rt; the router's metrics registry doubles as the
// server's.
func NewRouterServer(rt *Router, cfg RouterServerConfig) *RouterServer {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 16
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &RouterServer{
		rt:         rt,
		cfg:        cfg,
		reg:        rt.reg,
		admitLimit: int64(cfg.MaxConcurrent + cfg.MaxQueue),
		running:    make(chan struct{}, cfg.MaxConcurrent),
		mRejected:  rt.reg.Counter("router/rejected"),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/seeds", s.handleSeeds)
	s.mux.HandleFunc("POST /v1/spread", s.handleSpread)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s
}

// Handler returns the router's HTTP handler.
func (s *RouterServer) Handler() http.Handler { return s.mux }

// Start listens on addr and serves until Shutdown.
func (s *RouterServer) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.httpSrv = &http.Server{Handler: s.mux}
	go s.httpSrv.Serve(ln)
	return ln.Addr(), nil
}

// Shutdown drains: health flips to 503, in-flight queries finish bounded
// by ctx.
func (s *RouterServer) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.httpSrv != nil {
		return s.httpSrv.Shutdown(ctx)
	}
	for s.admitted.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// Report assembles the router's RunReport: fleet shape, per-shard
// sub-reports (the PerRank slots), and the metrics snapshot. Flushed by
// cmd/immrouter on shutdown — the CI cluster-smoke artifact.
func (s *RouterServer) Report() *metrics.RunReport {
	rep := metrics.NewRunReport("IMMrouter", trace.Times{})
	canon := s.rt.Fleet()
	rep.K = canon.KMax
	rep.Epsilon = canon.Epsilon
	rep.Seed = canon.Seed
	rep.Theta = canon.Theta
	rep.Ranks = s.rt.Shards()
	s.rt.mu.Lock()
	var total int64
	for i := range s.rt.conns {
		rr := metrics.RankReport{Rank: i, LocalSamples: int64(s.rt.info[i].Samples)}
		if s.rt.failed[i] {
			rr.Comm = map[string]int64{"cluster/failed": 1}
		}
		total += rr.LocalSamples
		rep.PerRank = append(rep.PerRank, rr)
	}
	s.rt.mu.Unlock()
	rep.SamplesGenerated = total
	rep.Metrics = s.reg.Snapshot()
	return rep
}

// routerSeedsRequest is the POST /v1/seeds body; Stream selects NDJSON
// partial-result streaming. The query-diversity fields (DESIGN.md §17)
// are all optional — absent, the request is the classic top-k and the
// response is unchanged from earlier releases.
type routerSeedsRequest struct {
	K      int  `json:"k"`
	Stream bool `json:"stream,omitempty"`
	// Costs (per-vertex, length n) and Budget select cost-aware greedy;
	// Budget alone implies unit costs.
	Costs  []float64 `json:"costs,omitempty"`
	Budget float64   `json:"budget,omitempty"`
	// Audience restricts coverage to samples rooted in it (targeted
	// influence); Blocked excludes a rival's seeds and their coverage.
	Audience []graph.Vertex `json:"audience,omitempty"`
	Blocked  []graph.Vertex `json:"blocked,omitempty"`
}

// routerSeedsResponse is the non-streaming reply, and the final line of a
// streaming one.
type routerSeedsResponse struct {
	K                int            `json:"k"`
	KMax             int            `json:"kMax"`
	Seeds            []graph.Vertex `json:"seeds"`
	Gains            []int64        `json:"gains,omitempty"`
	CoverageFraction float64        `json:"coverageFraction"`
	EstimatedSpread  float64        `json:"estimatedSpread"`
	Theta            int64          `json:"theta"`
	TotalSamples     int64          `json:"totalSamples"`
	Shards           int            `json:"shards"`
	Degraded         bool           `json:"degraded"`
	FailedShards     []int          `json:"failedShards"`
	ShardEpochs      []uint64       `json:"shardEpochs"`
	Rounds           int            `json:"rounds"`
	// Query-diversity extras, present only on non-plain queries so classic
	// top-k responses keep their exact historical shape.
	Eligible    int64   `json:"eligible,omitempty"`
	SpentBudget float64 `json:"spentBudget,omitempty"`
}

// routerSpreadRequest is the POST /v1/spread body: estimate the influence
// of a caller-supplied seed set, optionally restricted to an audience.
type routerSpreadRequest struct {
	Seeds    []graph.Vertex `json:"seeds"`
	Audience []graph.Vertex `json:"audience,omitempty"`
}

// routerSpreadResponse is the POST /v1/spread reply.
type routerSpreadResponse struct {
	Covered          int64   `json:"covered"`
	Eligible         int64   `json:"eligible"`
	CoverageFraction float64 `json:"coverageFraction"`
	EstimatedSpread  float64 `json:"estimatedSpread"`
	Theta            int64   `json:"theta"`
	TotalSamples     int64   `json:"totalSamples"`
	Shards           int     `json:"shards"`
	Degraded         bool    `json:"degraded"`
	FailedShards     []int   `json:"failedShards"`
}

// streamedSeed is one NDJSON partial-result line: a seed the greedy loop
// just committed.
type streamedSeed struct {
	Index int          `json:"index"`
	Seed  graph.Vertex `json:"seed"`
	Gain  int64        `json:"gain"`
}

type routerError struct {
	Error string `json:"error"`
}

func (s *RouterServer) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *RouterServer) writeBackoff(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	s.writeJSON(w, status, routerError{Error: fmt.Sprintf(format, args...)})
}

// admit is the front half both query handlers share: refuse while
// draining or saturated, decode the JSON body into req, run the handler's
// own validation (an error is a 400), then wait for a worker slot until
// the client hangs up. It returns the release the handler must defer, or
// nil after having written the refusal.
func (s *RouterServer) admit(w http.ResponseWriter, r *http.Request, req any, validate func() error) func() {
	if s.draining.Load() {
		s.writeBackoff(w, http.StatusServiceUnavailable, "draining")
		return nil
	}
	if s.admitted.Add(1) > s.admitLimit {
		s.admitted.Add(-1)
		s.mRejected.Inc()
		s.writeBackoff(w, http.StatusTooManyRequests,
			"saturated: %d queries admitted (limit %d running + %d queued)",
			s.admitLimit, s.cfg.MaxConcurrent, s.cfg.MaxQueue)
		return nil
	}
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	err := json.NewDecoder(r.Body).Decode(req)
	if err != nil {
		err = fmt.Errorf("bad request body: %v", err)
	} else {
		err = validate()
	}
	if err != nil {
		s.admitted.Add(-1)
		s.writeJSON(w, http.StatusBadRequest, routerError{Error: err.Error()})
		return nil
	}
	select {
	case s.running <- struct{}{}:
	case <-r.Context().Done():
		s.admitted.Add(-1)
		s.writeBackoff(w, http.StatusServiceUnavailable, "queue wait exceeded: %v", r.Context().Err())
		return nil
	}
	return func() {
		<-s.running
		s.admitted.Add(-1)
	}
}

// writeFailure answers a query the router could not serve.
func (s *RouterServer) writeFailure(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if err == ErrNoShards {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, routerError{Error: err.Error()})
}

func (s *RouterServer) handleSeeds(w http.ResponseWriter, r *http.Request) {
	var req routerSeedsRequest
	var q RouterQuery
	release := s.admit(w, r, &req, func() error {
		if req.K < 1 || req.K > s.rt.Fleet().KMax {
			return fmt.Errorf("k = %d, want 1 <= k <= kMax = %d", req.K, s.rt.Fleet().KMax)
		}
		q = RouterQuery{K: req.K, Costs: req.Costs, Budget: req.Budget,
			Audience: req.Audience, Blocked: req.Blocked}
		return q.Validate(s.rt.Fleet().NumVertices)
	})
	if release == nil {
		return
	}
	defer release()

	var onSeed func(i int, v graph.Vertex, gain int64)
	var enc *json.Encoder
	if req.Stream {
		// NDJSON: one line per committed seed as the greedy loop runs,
		// then the full summary as the final line. Lines are flushed so a
		// client sees seeds as they are chosen; gains on seed lines are
		// as-of selection and may be restated by the summary after a
		// failover.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc = json.NewEncoder(w)
		flusher, _ := w.(http.Flusher)
		onSeed = func(i int, v graph.Vertex, gain int64) {
			enc.Encode(streamedSeed{Index: i, Seed: v, Gain: gain})
			if flusher != nil {
				flusher.Flush()
			}
		}
	}

	res, err := s.rt.SelectQuery(q, onSeed)
	if err != nil {
		if req.Stream {
			enc.Encode(routerError{Error: err.Error()})
			return
		}
		s.writeFailure(w, err)
		return
	}
	resp := routerSeedsResponse{
		K:                req.K,
		KMax:             s.rt.Fleet().KMax,
		Seeds:            res.Seeds,
		Gains:            res.Gains,
		CoverageFraction: res.CoverageFraction,
		EstimatedSpread:  res.EstimatedSpread,
		Theta:            res.Theta,
		TotalSamples:     res.TotalSamples,
		Shards:           res.Shards,
		Degraded:         res.Degraded,
		FailedShards:     append([]int{}, res.FailedShards...),
		ShardEpochs:      res.ShardEpochs,
		Rounds:           res.Rounds,
	}
	if !q.Plain() {
		resp.Eligible = res.Eligible
		resp.SpentBudget = res.SpentBudget
	}
	if req.Stream {
		enc.Encode(resp)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleSpread serves POST /v1/spread: the routed seed-set spread
// estimate, under the same admission control as /v1/seeds.
func (s *RouterServer) handleSpread(w http.ResponseWriter, r *http.Request) {
	var req routerSpreadRequest
	release := s.admit(w, r, &req, func() error {
		if len(req.Seeds) == 0 {
			return errors.New("spread needs at least one seed")
		}
		n := s.rt.Fleet().NumVertices
		for _, v := range append(slices.Clone(req.Seeds), req.Audience...) {
			if int(v) >= n {
				return fmt.Errorf("vertex %d out of range (n = %d)", v, n)
			}
		}
		return nil
	})
	if release == nil {
		return
	}
	defer release()

	res, err := s.rt.Spread(req.Seeds, req.Audience)
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, routerSpreadResponse{
		Covered:          res.Covered,
		Eligible:         res.Eligible,
		CoverageFraction: res.CoverageFraction,
		EstimatedSpread:  res.EstimatedSpread,
		Theta:            res.Theta,
		TotalSamples:     res.TotalSamples,
		Shards:           res.Shards,
		Degraded:         res.Degraded,
		FailedShards:     append([]int{}, res.FailedShards...),
	})
}

// handleHealthz: 200 while at least one shard is alive and not draining;
// 503 otherwise. The body carries the alive/fleet split either way.
func (s *RouterServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	failed := s.rt.FailedShards()
	alive := s.rt.Shards() - len(failed)
	status := http.StatusOK
	state := "ok"
	switch {
	case s.draining.Load():
		status, state = http.StatusServiceUnavailable, "draining"
	case alive == 0:
		status, state = http.StatusServiceUnavailable, "no shards"
	case len(failed) > 0:
		state = "degraded"
	}
	s.writeJSON(w, status, map[string]any{
		"status": state, "shards": s.rt.Shards(), "alive": alive, "failedShards": failed,
	})
}

func (s *RouterServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	if snap == nil {
		snap = &metrics.Snapshot{}
	}
	s.writeJSON(w, http.StatusOK, snap)
}
