package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"time"

	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/rrr"
	"influmax/internal/server"
)

// The writer of serve-delta posts one batch of deltaOps edge ops every
// deltaInterval; the reader asks for deltaReadK seeds in a closed loop.
const (
	deltaOps      = 32
	deltaInterval = 100 * time.Millisecond
	deltaReadK    = 20
)

// A deltaPlan is the writer's schedule, made from the seed before timing:
// every batch in the form the library takes and in the form the wire does.
type deltaPlan struct {
	batches []graph.Delta
	bodies  [][]byte
}

type deltaOpBody struct {
	Op  string  `json:"op"`
	Src uint32  `json:"src"`
	Dst uint32  `json:"dst"`
	W   float32 `json:"w,omitempty"`
}

// planDeltas makes count batches that are valid when applied in order to
// g: four inserts of absent edges and four deletes of present ones in ten,
// and two reweights, each a delete and an insert of the same edge.
func planDeltas(g *graph.Graph, rng *rand.Rand, count int) deltaPlan {
	n := g.NumVertices()
	key := func(u, v graph.Vertex) uint64 { return uint64(u)<<32 | uint64(v) }
	var edges []uint64
	at := make(map[uint64]int)
	add := func(k uint64) {
		at[k] = len(edges)
		edges = append(edges, k)
	}
	remove := func(k uint64) {
		i, last := at[k], len(edges)-1
		edges[i] = edges[last]
		at[edges[i]] = i
		edges = edges[:last]
		delete(at, k)
	}
	for u := 0; u < n; u++ {
		dsts, _ := g.OutNeighbors(graph.Vertex(u))
		for _, v := range dsts {
			if _, present := at[key(graph.Vertex(u), v)]; !present {
				add(key(graph.Vertex(u), v))
			}
		}
	}

	var plan deltaPlan
	for b := 0; b < count; b++ {
		var d graph.Delta
		for len(d) < deltaOps {
			switch r := rng.IntN(10); {
			case r < 4 || len(edges) == 0:
				u, v := graph.Vertex(rng.IntN(n)), graph.Vertex(rng.IntN(n))
				if _, present := at[key(u, v)]; present || u == v {
					continue
				}
				add(key(u, v))
				d = append(d, graph.DeltaOp{Kind: graph.DeltaInsert, Src: u, Dst: v, W: 0.1})
			case r < 8 || len(d) == deltaOps-1:
				k := edges[rng.IntN(len(edges))]
				remove(k)
				d = append(d, graph.DeltaOp{Kind: graph.DeltaDelete, Src: graph.Vertex(k >> 32), Dst: graph.Vertex(uint32(k))})
			default:
				k := edges[rng.IntN(len(edges))]
				u, v := graph.Vertex(k>>32), graph.Vertex(uint32(k))
				d = append(d,
					graph.DeltaOp{Kind: graph.DeltaDelete, Src: u, Dst: v},
					graph.DeltaOp{Kind: graph.DeltaInsert, Src: u, Dst: v, W: 0.05 * float32(1+rng.IntN(10))})
			}
		}
		ops := make([]deltaOpBody, len(d))
		for i, op := range d {
			ops[i] = deltaOpBody{Op: op.Kind.String(), Src: uint32(op.Src), Dst: uint32(op.Dst), W: op.W}
		}
		body, err := json.Marshal(struct {
			Ops []deltaOpBody `json:"ops"`
		}{ops})
		if err != nil {
			panic(err) // numbers and strings always marshal
		}
		plan.batches = append(plan.batches, d)
		plan.bodies = append(plan.bodies, body)
	}
	return plan
}

// A writeResult is what the open-loop writer saw.
type writeResult struct {
	publishMS []float64 // due time to the 200 with the new epoch
	lateMS    []float64 // due time to the send
	wall      time.Duration
}

// writeDeltas posts bodies one every deltaInterval. Each is timed from the
// moment it was due, so a stall counts against the batches it delays. The
// server held firstEpoch batches before; every answer must carry the next
// epoch.
func (c *runCtx) writeDeltas(client *http.Client, base string, bodies [][]byte, firstEpoch int) writeResult {
	var res writeResult
	start := time.Now()
	for i, body := range bodies {
		due := start.Add(time.Duration(i) * deltaInterval)
		time.Sleep(time.Until(due))
		res.lateMS = append(res.lateMS, float64(time.Since(due))/1e6)
		sp := c.rec.Begin("client.delta", 0, 0)
		var ans struct {
			Epoch uint64 `json:"epoch"`
		}
		err := postOnce(client, base+"/v1/graph/delta", body, &ans)
		sp.End()
		c.attempted++
		switch {
		case err != nil:
			c.fail("delta batch %d: %v", firstEpoch+i, err)
		case ans.Epoch != uint64(firstEpoch+i+1):
			c.fail("delta batch %d published epoch %d, want %d", firstEpoch+i, ans.Epoch, firstEpoch+i+1)
		default:
			res.publishMS = append(res.publishMS, float64(time.Since(due))/1e6)
		}
	}
	res.wall = time.Since(start)
	return res
}

// readAndWrite runs the reader for as long as the writer's schedule lasts,
// beside the writer.
func (c *runCtx) readAndWrite(env *mixedEnv, bodies [][]byte, firstEpoch int) (loadResult, writeResult) {
	readers := max(1, c.clients-1)
	done := make(chan loadResult)
	go func() { done <- env.load.run(readers, time.Duration(len(bodies))*deltaInterval) }()
	w := c.writeDeltas(env.load.client, env.ln.url, bodies, firstEpoch)
	return <-done, w
}

// batchesFor is the number of batches a schedule of the given length holds.
func batchesFor(seconds float64) int {
	return max(1, int(seconds*float64(time.Second)/float64(deltaInterval)))
}

// runServeDelta is serve-delta: writes beside reads on a dynamic immserve.
func runServeDelta(c *runCtx) error {
	g, genDur, err := c.makeGraph()
	if err != nil {
		return err
	}
	pool := []request{seedsRequest("plain", imm.Query{K: deltaReadK})}
	if c.trace {
		c.graphLayer(g, genDur)
		return traceServeDelta(c, g, pool)
	}
	plan := planDeltas(g, c.poolRNG(), batchesFor(c.seconds))
	env, err := setUpRepeatedly(c, func() (*mixedEnv, error) { return c.startMixed(pool, true) })
	if err != nil {
		return err
	}
	defer env.close()

	reads, writes := c.readAndWrite(env, plan.bodies, 0)
	c.countLoad(reads.samples, pool)
	sorted := slices.Clone(writes.publishMS)
	slices.Sort(sorted)
	c.e2e["op_p50_ms"] = medianOf(writes.publishMS, "ms")
	c.e2e["op_tail_ms"] = exact(percentile(sorted, c.spec.tailPct), "ms")
	ok := len(latenciesMS(reads.samples, pool, nil)) + len(writes.publishMS)
	c.e2e["ops_per_s"] = exact(float64(ok)/max(reads.wall, writes.wall).Seconds(), "1/s")

	return c.checkDelta(env, g, plan.batches)
}

// A deltaAnswer is a dynamic server's /v1/seeds answer with the sample
// count its report carries.
type deltaAnswer struct {
	seedsAnswer
	Report struct {
		SamplesGenerated int `json:"samplesGenerated"`
	} `json:"report"`
}

// checkDelta asks the server once more, now that every batch is applied,
// and holds the answer against a cold build over the final graph: the
// same number of samples drawn from scratch, indexed and selected from.
func (c *runCtx) checkDelta(env *mixedEnv, base *graph.Graph, batches []graph.Delta) error {
	var ans deltaAnswer
	if err := postOnce(env.load.client, env.ln.url+"/v1/seeds", env.load.pool[0].body, &ans); err != nil {
		return err
	}
	c.check(ans.DeltaEpoch == uint64(len(batches)), "served epoch %d after %d batches", ans.DeltaEpoch, len(batches))

	final := base
	for i, d := range batches {
		ov := graph.NewOverlay(final)
		if err := ov.Apply(d); err != nil {
			return fmt.Errorf("planned batch %d does not apply: %w", i, err)
		}
		final = ov.Compact()
		final.AssignWeightedCascade()
	}
	opt := c.options()
	col := rrr.NewCollection(final.NumVertices())
	imm.NewBatchSampler(final, opt).Sample(col, ans.Report.SamplesGenerated)
	idx := rrr.BuildIndex(col, opt.Workers)
	seeds, covered := imm.SelectSeedsIndexed(col, idx, deltaReadK, opt.Workers)
	coverage := float64(covered) / float64(col.Count())
	c.check(slices.Equal(ans.Seeds, seeds), "after %d batches the server chose %v, a cold build over the final graph %v", len(batches), ans.Seeds, seeds)
	c.check(ans.CoverageFraction == coverage, "after %d batches the server reports coverage %v, a cold build %v", len(batches), ans.CoverageFraction, coverage)
	c.answer = goldenEntry{Seeds: seeds, CoverageFraction: coverage, Theta: ans.Theta, DeltaBatches: len(batches)}
	return nil
}

// traceServeDelta is serve-delta's traced pass: half the schedule with the
// probes off, half with them on, then the same batches applied to a local
// dynamic sketch with no HTTP between.
func traceServeDelta(c *runCtx, g *graph.Graph, pool []request) error {
	env, err := c.startMixed(pool, true)
	if err != nil {
		return err
	}
	defer env.close()

	opt := c.options()
	start := time.Now()
	dyn, res, err := imm.NewDynamicSketch(g, opt, imm.WeightsWC)
	if err != nil {
		return err
	}
	runS := time.Since(start).Seconds()
	var st []staged
	for i := 0; i < minSolveRuns; i++ {
		s := c.stagedRun(g, opt, res.SamplesGenerated, false, 0)
		c.check(slices.Equal(s.seeds, res.Seeds), "the staged replay chose other seeds than imm.NewDynamicSketch")
		st = append(st, s)
	}
	c.engineLayer(res, []float64{runS}, st)

	half := batchesFor(c.seconds * 0.35)
	plan := planDeltas(g, c.poolRNG(), 2*half)
	var writes []writeResult
	epoch := 0
	traced := c.tracedSlices(env.load, func() loadResult {
		reads, w := c.readAndWrite(env, plan.bodies[epoch:epoch+half], epoch)
		writes = append(writes, w)
		epoch += half
		return reads
	}, func(on bool) {
		env.tap.Enable(on)
		env.tap.SetSpans(on)
	})
	c.handlerLayer(env.tap)
	c.layer["bench.writer_late_ms"] = medianOf(append(writes[0].lateMS, writes[1].lateMS...), "ms")
	if c.layer["server.delta_coalesced"], err = metricsCounter(env.load.client, env.ln.url, "server/delta-coalesced"); err != nil {
		return err
	}

	// The same batches, applied directly.
	var applyMS, patchMS, candidates, invalidated []float64
	for i, d := range plan.batches {
		prevCol, prevIdx := dyn.Collection(), dyn.Index()
		sp := c.rec.Begin("imm.apply_delta", 0, 0)
		t := time.Now()
		br, err := dyn.ApplyDelta(d)
		applyMS = append(applyMS, float64(time.Since(t))/1e6)
		sp.End()
		if err != nil {
			return fmt.Errorf("planned batch %d does not apply: %w", i, err)
		}
		candidates = append(candidates, float64(br.Candidates))
		invalidated = append(invalidated, float64(br.SamplesInvalidated))

		changed := changedSamples(prevCol, dyn.Collection(), prevIdx, d)
		sp = c.rec.Begin("rrr.patch_index", 0, 0)
		t = time.Now()
		patched := rrr.PatchIndex(prevIdx, prevCol, dyn.Collection(), changed, opt.Workers)
		patchMS = append(patchMS, float64(time.Since(t))/1e6)
		sp.End()
		c.check(patched.Bytes() == dyn.Index().Bytes(), "batch %d: the patched index has %d bytes, the sketch's own %d", i, patched.Bytes(), dyn.Index().Bytes())
	}
	c.layer["imm.apply_delta_ms"] = medianOf(applyMS, "ms")
	c.layer["rrr.patch_index_ms"] = medianOf(patchMS, "ms")
	c.layer["imm.delta_candidates_per_batch"] = exact(mean(candidates), "count")
	c.layer["imm.delta_invalidated_per_batch"] = exact(mean(invalidated), "count")
	c.layer["imm.delta_repair_ratio"] = exact(mean(invalidated)/float64(dyn.Collection().Count()), "ratio")

	sk := &server.Sketch{
		Key: env.srv.DefaultKey(), Col: rrr.FromCollection(dyn.Collection(), nil), Idx: dyn.Index(),
		Theta: dyn.Theta(), Source: "dynamic", DeltaEpoch: dyn.Epoch(),
	}
	c.shapeLayer(traced.samples, pool, c.directSlice(sk, pool, time.Duration(c.seconds*0.1*float64(time.Second))))

	// The server applied the same batches over HTTP, so it must now agree
	// with the local sketch as well as with a cold build.
	if err := c.checkDelta(env, g, plan.batches); err != nil {
		return err
	}
	seeds, _ := sk.Query(deltaReadK, c.workers)
	c.check(slices.Equal(seeds, c.answer.Seeds), "direct maintenance chose %v, the server %v", seeds, c.answer.Seeds)
	return nil
}

// changedSamples lists the samples that differ between prev and next,
// ascending. Only samples that held an op's target can have changed.
func changedSamples(prev, next *rrr.Collection, prevIdx *rrr.Index, d graph.Delta) []int32 {
	var cands []int32
	for _, op := range d {
		cands = append(cands, prevIdx.SamplesOf(op.Dst)...)
	}
	slices.Sort(cands)
	cands = slices.Compact(cands)
	changed := cands[:0]
	for _, id := range cands {
		if !slices.Equal(prev.Sample(int(id)), next.Sample(int(id))) {
			changed = append(changed, id)
		}
	}
	return changed
}
