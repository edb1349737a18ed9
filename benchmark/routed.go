package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"influmax/benchmark/internal/span"
	"influmax/benchmark/internal/tap"
	"influmax/internal/cluster"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/server"
)

// The fleet width, request mix and plain k values of serve-routed.
const routedShards = 2

var (
	routedMix = []mixEntry{{"plain", 70}, {"targeted", 15}, {"spread", 15}}
	routedKs  = []int{5, 20, 50}
)

// treeQueries is how many pool requests the serial passes of the traced
// run send: a fixed list, so that the counts taken over it repeat exactly.
const treeQueries = 40

// A routedEnv is a shard fleet behind a router: every shard a shard-mode
// immserve on its own loopback listener, the router reaching them through
// HTTPConn, and the router's own front on a third listener.
type routedEnv struct {
	g      *graph.Graph
	shards []*listener
	conns  []cluster.Conn
	rt     *cluster.Router
	front  *listener
	load   *loader
	first  seedsAnswer

	buildDur, faDur time.Duration

	// Probes of the traced pass; nil otherwise.
	connTap   *tap.ConnTap
	shardTaps []*tap.Handler
	frontTap  *tap.Handler
}

func (e *routedEnv) firstAnswerTime() time.Duration { return e.faDur }

func (e *routedEnv) close() {
	if e.load != nil {
		e.load.close()
	}
	if e.front != nil {
		e.front.close()
	}
	for _, c := range e.conns {
		c.Close()
	}
	for _, l := range e.shards {
		l.close()
	}
}

// startRouted sets serve-routed up from nothing.
func (c *runCtx) startRouted(pool []request) (*routedEnv, error) {
	e := &routedEnv{}
	var err error
	if e.g, _, err = c.makeGraph(); err != nil {
		return nil, err
	}
	built := time.Now()
	shards, err := cluster.BuildShards(e.g, cluster.BuildOptions{
		K: c.spec.k, Epsilon: c.eps(), Model: c.spec.model, Seed: c.seed,
		Shards: routedShards, Workers: c.workers,
	})
	if err != nil {
		return nil, err
	}
	e.buildDur = time.Since(built)
	if c.trace {
		e.connTap = tap.NewConnTap(c.rec)
	}
	for slot, sh := range shards {
		cfg := c.serverConfig(e.g)
		cfg.ClusterShard = sh
		srv, err := server.New(cfg)
		if err != nil {
			e.close()
			return nil, err
		}
		h := srv.Handler()
		// The shard's tap takes its parent from the decorator of the
		// connection that reaches it, which exists once the listener does.
		var wrapped *tap.Conn
		if c.trace {
			t := tap.NewHandler("shard.handle", c.rec, func() (uint64, uint64) { return wrapped.Current() })
			e.shardTaps = append(e.shardTaps, t)
			h = t.Wrap(h)
		}
		ln, err := listen(h)
		if err != nil {
			e.close()
			return nil, err
		}
		e.shards = append(e.shards, ln)
		var conn cluster.Conn = cluster.NewHTTPConn(ln.url, slot, 0)
		if c.trace {
			wrapped = e.connTap.Wrap(conn)
			conn = wrapped
		}
		e.conns = append(e.conns, conn)
	}
	if e.rt, err = cluster.NewRouter(e.conns, nil); err != nil {
		e.close()
		return nil, err
	}
	h := cluster.NewRouterServer(e.rt, cluster.RouterServerConfig{}).Handler()
	if c.trace {
		e.frontTap = tap.NewHandler("router.handle", c.rec, nil)
		h = e.frontTap.Wrap(h)
	}
	if e.front, err = listen(h); err != nil {
		e.close()
		return nil, err
	}
	e.load = newLoader(e.front.url, pool, c.clients)
	if e.first, err = c.firstAnswer(e.load.client, e.front.url); err != nil {
		e.close()
		return nil, err
	}
	e.faDur = time.Since(built)
	if err := warmUp(e.load); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// runServeRouted is serve-routed: the query layer reached through the
// cluster.
func runServeRouted(c *runCtx) error {
	g, genDur, err := c.makeGraph()
	if err != nil {
		return err
	}
	pool := buildPool(g, c.poolRNG(), routedMix, routedKs, c.spec.k)
	if c.trace {
		c.graphLayer(g, genDur)
		return traceServeRouted(c, pool)
	}
	env, err := setUpRepeatedly(c, func() (*routedEnv, error) { return c.startRouted(pool) })
	if err != nil {
		return err
	}
	defer env.close()

	res := env.load.run(c.clients, time.Duration(c.seconds*float64(time.Second)))
	c.countLoad(res.samples, pool)
	c.e2eFromLoad(res, pool)

	sk, _, _, err := c.localSketch(env.g)
	if err != nil {
		return err
	}
	c.verifyAnswers(sk, pool, env.load.kept, env.first)
	return nil
}

// probes switches every probe of the fleet.
func (e *routedEnv) probes(on, spans bool) {
	e.connTap.Enable(on)
	e.connTap.SetSpans(spans)
	e.frontTap.Enable(on)
	e.frontTap.SetSpans(spans)
	for _, t := range e.shardTaps {
		t.Enable(on)
		t.SetSpans(spans)
	}
}

func (e *routedEnv) resetProbes() {
	e.connTap.Reset()
	e.frontTap.Reset()
	for _, t := range e.shardTaps {
		t.Reset()
	}
}

// traceServeRouted is serve-routed's traced pass. The concurrent slices
// give the per-shape client latencies and the round-trip statistics; the
// two serial passes that follow, with one query in flight, give the span
// tree (request identity across the fleet is not something the system
// carries yet) and the counts that must repeat exactly.
func traceServeRouted(c *runCtx, pool []request) error {
	env, err := c.startRouted(pool)
	if err != nil {
		return err
	}
	defer env.close()
	c.layer["cluster.build_shards_s"] = exact(env.buildDur.Seconds(), "s")
	sk, err := c.sketchLayer(env.g)
	if err != nil {
		return err
	}

	slice := time.Duration(c.seconds * 0.3 * float64(time.Second))
	// Client and router-front spans carry their parents in headers; conn
	// and shard spans would be guesses under concurrency, so they stay off.
	traced := c.tracedSlices(env.load, func() loadResult { return env.load.run(c.clients, slice) }, func(on bool) {
		env.probes(on, false)
		env.frontTap.SetSpans(on)
	})
	c.handlerLayer(env.frontTap)
	c.shapeLayer(traced.samples, pool, c.directSlice(sk, pool, slice/2))
	c.rttLayer(env)

	idx := make([]int, min(treeQueries, len(pool)))
	for i := range idx {
		idx[i] = i
	}
	c.treePasses(env, pool, idx)
	if err := c.routedOverLocal(env, sk); err != nil {
		return err
	}
	c.verifyAnswers(sk, pool, env.load.kept, env.first)
	return nil
}

// rttLayer reports what the probes saw during the traced slice: the round
// trip of every shard op, the time inside the shard handlers, and their
// difference.
func (c *runCtx) rttLayer(env *routedEnv) {
	durs := env.connTap.Durations()
	durs["start"] = append(durs["start"], durs["start_filtered"]...)
	var ops, rttNs float64
	for _, op := range []string{"start", "purge", "spread", "end"} {
		us := make([]float64, len(durs[op]))
		for i, d := range durs[op] {
			us[i] = float64(d) / 1e3
			rttNs += float64(d)
		}
		ops += float64(len(us))
		if len(us) > 0 {
			c.layer["cluster.shard_rtt_us."+op] = medianOf(us, "us")
		}
	}
	var busyNs float64
	for _, t := range env.shardTaps {
		busyNs += float64(t.BusyNs.Load())
	}
	if ops > 0 {
		c.layer["cluster.shard_busy_us"] = exact(busyNs/ops/1e3, "us")
		c.layer["cluster.transport_us"] = exact((rttNs-busyNs)/ops/1e3, "us")
	}
}

// treePasses sends the queries idx twice with one in flight: through the
// router's HTTP front, and as direct Router calls. Every span then has the
// one possible parent.
func (c *runCtx) treePasses(env *routedEnv, pool []request, idx []int) {
	env.resetProbes()
	env.probes(true, true)
	defer env.probes(false, false)

	// Pass 1, over HTTP: serial.request > router.handle > cluster.conn.* >
	// shard.handle. The root has a name of its own, so that these trees
	// are not averaged with the concurrent slice's, which end at the router.
	env.connTap.SetParent(env.frontTap.Current)
	env.load.rec, env.load.spanName = c.rec, "serial.request."
	samples := env.load.serial(idx)
	env.load.rec, env.load.spanName = nil, "client.request."
	c.countLoad(samples, pool)
	var up, down, rounds float64
	for _, t := range env.shardTaps {
		up += float64(t.ReqBytes.Load())
		down += float64(t.RespBytes.Load())
		rounds += float64(t.Requests.Load())
	}
	n := float64(len(idx))
	c.layer["cluster.bytes_per_query.up"] = exact(up/n, "B")
	c.layer["cluster.bytes_per_query.down"] = exact(down/n, "B")
	c.layer["cluster.rounds_per_query"] = exact(rounds/n/routedShards, "count")

	// Pass 2, direct: router.select > cluster.conn.* > shard.handle.
	var roots []uint64
	for _, i := range idx {
		r := pool[i]
		sp := c.rec.Begin("router.select."+r.label(), 0, uint64(i)+1)
		env.connTap.SetParent(func() (uint64, uint64) { return sp.ID(), uint64(i) + 1 })
		var err error
		if r.shape == "spread" {
			_, err = env.rt.Spread(r.seeds, r.audience)
		} else {
			_, err = env.rt.SelectQuery(cluster.RouterQuery{K: r.q.K, Costs: r.q.Costs, Budget: r.q.Budget,
				Audience: r.q.Audience, Blocked: r.q.Blocked}, nil)
		}
		sp.End()
		c.check(err == nil, "direct routed %s query %d: %v", r.shape, i, err)
		roots = append(roots, sp.ID())
	}
	env.connTap.SetParent(nil)
	self := span.SelfTimes(c.rec.Spans())
	var mergeUS []float64
	for _, id := range roots {
		mergeUS = append(mergeUS, float64(self[id])/1e3)
	}
	c.layer["cluster.merge_us_per_query"] = medianOf(mergeUS, "us")
}

// routedOverLocal compares a routed plain k=50 query with the same query
// on one immserve holding the whole sketch, both from one serial client.
func (c *runCtx) routedOverLocal(env *routedEnv, sk *server.Sketch) error {
	cfg := c.serverConfig(env.g)
	cfg.Sketch = sk
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	ln, err := listen(srv.Handler())
	if err != nil {
		return err
	}
	defer ln.close()
	k := min(50, c.spec.k)
	one := []request{seedsRequest("plain", imm.Query{K: k})}
	idx := make([]int, treeQueries)
	local := newLoader(ln.url, one, 1)
	defer local.close()
	routed := newLoader(env.front.url, one, 1)
	defer routed.close()
	serialMS := func(l *loader) []float64 {
		samples := l.serial(idx)
		c.countLoad(samples, one)
		return latenciesMS(samples, one, nil)
	}
	localMS, routedMS := serialMS(local), serialMS(routed)
	if len(localMS) == 0 || len(routedMS) == 0 {
		return fmt.Errorf("routed-over-local: no plain k=%d query was answered", k)
	}
	c.layer["cluster.routed_over_local"] = exact(median(routedMS)/median(localMS), "ratio")
	var a, b seedsAnswer
	if err := json.Unmarshal(local.kept[0], &a); err != nil {
		return err
	}
	if err := json.Unmarshal(routed.kept[0], &b); err != nil {
		return err
	}
	c.check(slices.Equal(a.Seeds, b.Seeds), "routed plain k=%d seeds %v, single-process %v", k, b.Seeds, a.Seeds)
	return nil
}
