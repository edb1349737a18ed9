package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"influmax/benchmark/internal/tap"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/server"
)

// The request mix of serve-mixed, in requests per hundred, and the k
// values its plain queries rotate through.
var (
	mixedMix = []mixEntry{{"plain", 50}, {"budgeted", 10}, {"costs", 5}, {"targeted", 15}, {"blocked", 10}, {"spread", 10}}
	mixedKs  = []int{5, 20, 50, 100}
)

// poolRNG seeds a workload's request generator from the run's seed.
func (c *runCtx) poolRNG() *rand.Rand { return rand.New(rand.NewPCG(c.seed, 0x696d6d62656e6368)) }

// serverConfig is immserve's configuration for the workload's sketch,
// with server.Config's defaults for everything about admission.
func (c *runCtx) serverConfig(g *graph.Graph) server.Config {
	return server.Config{
		Graph: g, Model: c.spec.model, Epsilon: c.eps(), KMax: c.spec.k,
		Seed: c.seed, Workers: c.workers, Store: c.spec.store,
	}
}

// A seedsAnswer holds the fields of a /v1/seeds answer, from immserve or
// immrouter, that the benchmark checks; a spreadAnswer those of /v1/spread.
type seedsAnswer struct {
	Seeds            []graph.Vertex `json:"seeds"`
	CoverageFraction float64        `json:"coverageFraction"`
	Theta            int64          `json:"theta"`
	DeltaEpoch       uint64         `json:"deltaEpoch"`
}

type spreadAnswer struct {
	Covered          int64   `json:"covered"`
	CoverageFraction float64 `json:"coverageFraction"`
}

// firstAnswer asks base for kMax seeds: the query a cold server answers
// first, and the one golden.json pins.
func (c *runCtx) firstAnswer(client *http.Client, base string) (seedsAnswer, error) {
	var ans seedsAnswer
	body, _ := json.Marshal(seedsBody{K: c.spec.k})
	err := postOnce(client, base+"/v1/seeds", body, &ans)
	return ans, err
}

// warmUp sends the first request of every shape once.
func warmUp(l *loader) error {
	seen := make(map[string]bool)
	var idx []int
	for i, r := range l.pool {
		if !seen[r.shape] {
			seen[r.shape] = true
			idx = append(idx, i)
		}
	}
	for _, s := range l.serial(idx) {
		if s.status != http.StatusOK {
			return fmt.Errorf("warm-up %s request answered %d", l.pool[s.req].shape, s.status)
		}
	}
	return nil
}

// A mixedEnv is one immserve process's worth of serving: the server behind
// a loopback listener, and the loader pointed at it.
type mixedEnv struct {
	g     *graph.Graph
	srv   *server.Server
	ln    *listener
	load  *loader
	tap   *tap.Handler // nil unless traced
	first seedsAnswer
	faDur time.Duration
}

func (e *mixedEnv) close() {
	e.load.close()
	e.ln.close()
}

func (e *mixedEnv) firstAnswerTime() time.Duration { return e.faDur }

// startMixed sets serve-mixed (and, with a dynamic config, serve-delta) up
// from nothing: graph, server, listener, first answer, warm-up.
func (c *runCtx) startMixed(pool []request, dynamic bool) (*mixedEnv, error) {
	e := &mixedEnv{}
	var err error
	if e.g, _, err = c.makeGraph(); err != nil {
		return nil, err
	}
	built := time.Now()
	cfg := c.serverConfig(e.g)
	if dynamic {
		cfg.Dynamic, cfg.WeightPolicy = true, imm.WeightsWC
	}
	if e.srv, err = server.New(cfg); err != nil {
		return nil, err
	}
	h := e.srv.Handler()
	if c.trace {
		e.tap = tap.NewHandler("server.handle", c.rec, nil)
		h = e.tap.Wrap(h)
	}
	if e.ln, err = listen(h); err != nil {
		return nil, err
	}
	e.load = newLoader(e.ln.url, pool, c.clients)
	if e.first, err = c.firstAnswer(e.load.client, e.ln.url); err != nil {
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

// setUpRepeatedly runs start `setups` times, closing all but the last
// environment, and reports the medians of the set-up and first-answer
// times.
func setUpRepeatedly[E interface {
	close()
	firstAnswerTime() time.Duration
}](c *runCtx, start func() (E, error)) (E, error) {
	var (
		env         E
		setupS, faS []float64
	)
	for i := 0; i < setups; i++ {
		if i > 0 {
			env.close()
		}
		t := time.Now()
		var err error
		if env, err = start(); err != nil {
			return env, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
		faS = append(faS, env.firstAnswerTime().Seconds())
	}
	c.e2e["setup_s"] = medianOf(setupS, "s")
	c.e2e["first_answer_s"] = medianOf(faS, "s")
	return env, nil
}

// runServeMixed is serve-mixed: closed-loop clients, all six shapes, one
// immserve.
func runServeMixed(c *runCtx) error {
	g, genDur, err := c.makeGraph()
	if err != nil {
		return err
	}
	pool := buildPool(g, c.poolRNG(), mixedMix, mixedKs, c.spec.k)
	if c.trace {
		c.graphLayer(g, genDur)
		return traceServeMixed(c, pool)
	}
	env, err := setUpRepeatedly(c, func() (*mixedEnv, error) { return c.startMixed(pool, false) })
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

// localSketch builds, in this process and through the library alone, the
// sketch the server under test holds: same graph, same key, so the same
// samples. It is what served answers are checked against and what the
// direct, no-HTTP calls of the traced pass run on.
func (c *runCtx) localSketch(g *graph.Graph) (*server.Sketch, *imm.Result, time.Duration, error) {
	start := time.Now()
	res, col, idx, err := imm.RunSketch(g, c.options())
	if err != nil {
		return nil, nil, 0, err
	}
	key := server.SketchKey{GraphDigest: g.Digest(), Model: c.spec.model, Epsilon: c.eps(), KMax: c.spec.k, Seed: c.seed}
	return &server.Sketch{Key: key, Col: col, Idx: idx, Theta: res.Theta, LowerBound: res.LowerBound, Source: "sampled"},
		res, time.Since(start), nil
}

// direct answers pool request r on sk without HTTP, the way the server's
// handlers do, returning the seeds (nil for a spread request) and the
// covered-sample count.
func direct(sk *server.Sketch, r request, workers int) ([]graph.Vertex, int64, error) {
	switch {
	case r.shape == "spread":
		covered, _, err := sk.Spread(r.seeds, r.audience)
		return nil, covered, err
	case r.q.Plain():
		seeds, covered := sk.Query(r.q.K, workers)
		return seeds, covered, nil
	default:
		qr, err := sk.QueryEx(r.q, workers)
		if err != nil {
			return nil, 0, err
		}
		return qr.Seeds, qr.Covered, nil
	}
}

// verifyAnswers holds every kept answer against the local sketch: the
// served seeds are the library's seeds for the same query (so routed equals
// single-process), and the served coverage fraction is what Sketch.Spread
// counts for the served seeds.
func (c *runCtx) verifyAnswers(sk *server.Sketch, pool []request, kept map[int][]byte, first seedsAnswer) {
	count := float64(sk.Col.Count())
	seeds, covered := sk.Query(c.spec.k, c.workers)
	c.answer = goldenEntry{Seeds: seeds, CoverageFraction: float64(covered) / count, Theta: sk.Theta}
	c.check(slices.Equal(first.Seeds, seeds) && first.CoverageFraction == c.answer.CoverageFraction,
		"first answer: served seeds %v (coverage %v), the library's %v (%v)", first.Seeds, first.CoverageFraction, seeds, c.answer.CoverageFraction)

	for i, body := range kept {
		r := pool[i]
		wantSeeds, wantCovered, err := direct(sk, r, c.workers)
		if err != nil {
			c.check(false, "%s request %d: the library refuses it: %v", r.shape, i, err)
			continue
		}
		if r.shape == "spread" {
			var ans spreadAnswer
			err := json.Unmarshal(body, &ans)
			c.check(err == nil && ans.Covered == wantCovered && ans.CoverageFraction == float64(wantCovered)/count,
				"spread request %d: served covered %d, the library's %d (%v)", i, ans.Covered, wantCovered, err)
			continue
		}
		var ans seedsAnswer
		if err := json.Unmarshal(body, &ans); err != nil {
			c.check(false, "%s request %d: %v", r.shape, i, err)
			continue
		}
		c.check(slices.Equal(ans.Seeds, wantSeeds), "%s request %d: served seeds %v, the library's %v", r.shape, i, ans.Seeds, wantSeeds)
		// A rival's coverage does not count for the seeds chosen against it.
		own, _, err := sk.Spread(append(slices.Clone(ans.Seeds), r.q.Blocked...), r.q.Audience)
		if err == nil && len(r.q.Blocked) > 0 {
			var rival int64
			rival, _, err = sk.Spread(r.q.Blocked, r.q.Audience)
			own -= rival
		}
		c.check(err == nil && ans.CoverageFraction == float64(own)/count,
			"%s request %d: served coverage %v, Sketch.Spread of the served seeds %v (%v)", r.shape, i, ans.CoverageFraction, float64(own)/count, err)
	}
}

// directSlice repeats the pool's requests on sk with no HTTP between, from
// as many goroutines as there are clients, for d; it returns the call
// times in us per shape.
func (c *runCtx) directSlice(sk *server.Sketch, pool []request, d time.Duration) map[string][]float64 {
	per := make([]map[string][]float64, c.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for j := 0; j < c.clients; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			per[j] = make(map[string][]float64)
			i := j * len(pool) / c.clients
			for time.Since(start) < d {
				r := pool[i]
				sp := c.rec.Begin("imm.query."+r.label(), 0, 0)
				t := time.Now()
				_, _, err := direct(sk, r, c.workers)
				lat := time.Since(t)
				sp.End()
				if err == nil {
					per[j][r.shape] = append(per[j][r.shape], float64(lat)/1e3)
				}
				i = (i + 1) % len(pool)
			}
		}(j)
	}
	wg.Wait()
	out := make(map[string][]float64)
	for _, m := range per {
		for shape, xs := range m {
			out[shape] = append(out[shape], xs...)
		}
	}
	return out
}

// shapeLayer reports, per request shape, the client-observed median, the
// direct-call median and their difference.
func (c *runCtx) shapeLayer(samples []sample, pool []request, directUS map[string][]float64) {
	for _, shape := range shapes {
		client := latenciesMS(samples, pool, func(s string) bool { return s == shape })
		if len(client) == 0 {
			continue
		}
		c.layer["server.query_p50_ms."+shape] = medianOf(client, "ms")
		if d := directUS[shape]; len(d) > 0 {
			c.layer["imm.query_us."+shape] = medianOf(d, "us")
			c.layer["server.front_overhead_us."+shape] = exact(median(client)*1e3-median(d), "us")
		}
	}
}

// tracedSlices runs the load twice, first with every probe off and then
// with them on, and reports what only the pair can: the tracing overhead,
// and the allocation and GC cost of the traced slice per request.
func (c *runCtx) tracedSlices(l *loader, run func() loadResult, probes func(on bool)) loadResult {
	bare := run()
	c.countLoad(bare.samples, l.pool)

	probes(true)
	l.rec = c.rec
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced := run()
	runtime.ReadMemStats(&m1)
	l.rec = nil
	probes(false)
	rejected := c.countLoad(traced.samples, l.pool)

	n := float64(len(traced.samples))
	c.layer["bench.trace_overhead_ratio"] = exact(
		median(latenciesMS(traced.samples, l.pool, nil))/median(latenciesMS(bare.samples, l.pool, nil)), "ratio")
	c.layer["bench.client_busy_ratio"] = exact(bare.busy, "ratio")
	c.layer["bench.cpu_util"] = exact(bare.cpu, "ratio")
	c.layer["server.alloc_bytes_per_query"] = exact(float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B")
	c.layer["server.allocs_per_query"] = exact(float64(m1.Mallocs-m0.Mallocs)/n, "count")
	c.layer["server.gc_cycles"] = exact(float64(m1.NumGC-m0.NumGC), "count")
	c.layer["server.rejected_ratio"] = exact(float64(rejected)/n, "ratio")
	return traced
}

// handlerLayer reports the bytes a server.Handler tap counted per request.
func (c *runCtx) handlerLayer(t *tap.Handler) {
	if n := float64(t.Requests.Load()); n > 0 {
		c.layer["server.req_bytes_per_query"] = exact(float64(t.ReqBytes.Load())/n, "B")
		c.layer["server.resp_bytes_per_query"] = exact(float64(t.RespBytes.Load())/n, "B")
	}
}

// metricsCounter reads one counter from a server's /v1/metrics.
func metricsCounter(client *http.Client, base, name string) (stat, error) {
	resp, err := client.Get(base + "/v1/metrics")
	if err != nil {
		return stat{}, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return stat{}, err
	}
	return exact(float64(snap.Counters[name]), "count"), nil
}

// sketchLayer builds the local sketch under a timer, replays its stages
// and reports the engine metrics.
func (c *runCtx) sketchLayer(g *graph.Graph) (*server.Sketch, error) {
	sk, res, dur, err := c.localSketch(g)
	if err != nil {
		return nil, err
	}
	var st []staged
	for i := 0; i < minSolveRuns; i++ {
		s := c.stagedRun(g, c.options(), res.SamplesGenerated, true, 0)
		c.check(slices.Equal(s.seeds, res.Seeds), "the staged replay chose other seeds than imm.RunSketch")
		st = append(st, s)
	}
	c.engineLayer(res, []float64{dur.Seconds()}, st)
	return sk, nil
}

// snapshotLayer saves sk, loads it back and reports both times.
func (c *runCtx) snapshotLayer(sk *server.Sketch, g *graph.Graph) error {
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(c.outDir, fmt.Sprintf("sketch-%s-%d.snap", c.spec.name, os.Getpid()))
	defer os.Remove(path)
	t := time.Now()
	if err := sk.Save(path); err != nil {
		return err
	}
	c.layer["rrr.snapshot_save_s"] = exact(time.Since(t).Seconds(), "s")
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	c.layer["rrr.snapshot_bytes"] = exact(float64(info.Size()), "B")
	t = time.Now()
	loaded, err := server.LoadSketch(path, g, c.workers, c.spec.store, 0)
	if err != nil {
		return err
	}
	c.layer["rrr.snapshot_load_s"] = exact(time.Since(t).Seconds(), "s")
	a, _ := loaded.Query(c.spec.k, c.workers)
	b, _ := sk.Query(c.spec.k, c.workers)
	c.check(slices.Equal(a, b), "the sketch loaded from its snapshot chooses other seeds")
	return nil
}

// traceServeMixed is serve-mixed's traced pass.
func traceServeMixed(c *runCtx, pool []request) error {
	env, err := c.startMixed(pool, false)
	if err != nil {
		return err
	}
	defer env.close()
	sk, err := c.sketchLayer(env.g)
	if err != nil {
		return err
	}
	if err := c.snapshotLayer(sk, env.g); err != nil {
		return err
	}

	slice := time.Duration(c.seconds * 0.3 * float64(time.Second))
	traced := c.tracedSlices(env.load, func() loadResult { return env.load.run(c.clients, slice) }, func(on bool) {
		env.tap.Enable(on)
		env.tap.SetSpans(on)
	})
	c.handlerLayer(env.tap)
	directUS := c.directSlice(sk, pool, slice)
	c.shapeLayer(traced.samples, pool, directUS)

	if c.layer["server.delta_coalesced"], err = metricsCounter(env.load.client, env.ln.url, "server/delta-coalesced"); err != nil {
		return err
	}
	c.verifyAnswers(sk, pool, env.load.kept, env.first)
	return nil
}
