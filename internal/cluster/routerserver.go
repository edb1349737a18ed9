package cluster

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"influmax/internal/front"
	"influmax/internal/graph"
	"influmax/internal/imm"
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

// RouterServer is the HTTP front of a Router: the same front.Front a
// single immserve runs, over the fleet backend, so clients move from one
// replica to a fleet by changing the address.
type RouterServer struct {
	rt    *Router
	front *front.Front
}

// NewRouterServer wraps rt; the router's metrics registry doubles as the
// front's, under the router/ prefix.
func NewRouterServer(rt *Router, cfg RouterServerConfig) *RouterServer {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	return &RouterServer{rt: rt, front: front.New(front.Config{
		KMax: rt.canon.KMax, NumVertices: rt.canon.NumVertices, Name: "router", Metrics: rt.reg,
		MaxConcurrent: cfg.MaxConcurrent, MaxQueue: cfg.MaxQueue, RetryAfter: cfg.RetryAfter,
	}, fleetBackend{rt})}
}

// Handler returns the router's HTTP handler.
func (s *RouterServer) Handler() http.Handler { return s.front.Mux }

// Start listens on addr and serves until Shutdown.
func (s *RouterServer) Start(addr string) (net.Addr, error) { return s.front.Start(addr) }

// Shutdown drains: health flips to 503, in-flight queries finish bounded
// by ctx.
func (s *RouterServer) Shutdown(ctx context.Context) error { return s.front.Shutdown(ctx) }

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
	rep.Metrics = s.rt.reg.Snapshot()
	return rep
}

// fleetBackend answers the front's queries over the fleet, at the one
// sketch configuration its shards were sampled for.
type fleetBackend struct{ rt *Router }

func (b fleetBackend) Check(o front.Overrides) error {
	if o.Any() {
		return front.ErrFixedSketch
	}
	return nil
}

func (b fleetBackend) Seeds(ctx context.Context, _ front.Overrides, q imm.Query, onSeed func(int, graph.Vertex, int64)) (*front.SeedsResponse, error) {
	res, err := b.rt.serveQuery(ctx, q, onSeed)
	if err != nil {
		return nil, fleetErr(err)
	}
	return &front.SeedsResponse{
		Seeds:            res.Seeds,
		CoverageFraction: res.CoverageFraction,
		EstimatedSpread:  res.EstimatedSpread,
		Theta:            res.Theta,
		FleetSelection: &front.FleetSelection{Fleet: fleetOf(res.FleetStatus),
			ShardEpochs: res.ShardEpochs, Rounds: res.Rounds},
		Gains:       res.Gains,
		Eligible:    res.Eligible,
		SpentBudget: res.SpentBudget,
	}, nil
}

func (b fleetBackend) Spread(ctx context.Context, _ front.Overrides, seeds, audience []graph.Vertex) (*front.SpreadResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, fleetErr(err)
	}
	res, err := b.rt.Spread(seeds, audience)
	if err != nil {
		return nil, fleetErr(err)
	}
	fleet := fleetOf(res.FleetStatus)
	return &front.SpreadResponse{
		Covered:          res.Covered,
		Eligible:         res.Eligible,
		CoverageFraction: res.CoverageFraction,
		EstimatedSpread:  res.EstimatedSpread,
		Theta:            res.Theta,
		Fleet:            &fleet,
	}, nil
}

// Health serves while any shard is alive; the body carries the split.
func (b fleetBackend) Health() (map[string]any, bool) {
	failed := b.rt.FailedShards()
	alive := b.rt.Shards() - len(failed)
	state := "ok"
	switch {
	case alive == 0:
		state = "no shards"
	case len(failed) > 0:
		state = "degraded"
	}
	return map[string]any{"status": state, "shards": b.rt.Shards(), "alive": alive, "failedShards": failed}, alive > 0
}

// fleetOf is the wire form of a routed answer's fleet status.
func fleetOf(st FleetStatus) front.Fleet {
	return front.Fleet{TotalSamples: st.TotalSamples, Shards: st.Shards, Degraded: st.Degraded,
		FailedShards: append([]int{}, st.FailedShards...)}
}

// fleetErr marks a fleet with no live shard, and a query abandoned at
// its deadline or by its client, as a transient 503.
func fleetErr(err error) error {
	if err == ErrNoShards || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return front.Unavailable(err)
	}
	return err
}
