package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
	"influmax/internal/mpi"
)

// probeInterval rate-limits rejoin probing of failed shards: at most one
// probe sweep per interval, so a down replica costs queries one timeout
// per interval, not one per query.
const probeInterval = time.Second

// ErrNoShards reports a query that found no live shard to serve from.
var ErrNoShards = errors.New("cluster: no shards alive")

// Router fans a seed query out over a shard fleet and runs the selection
// engine over the shards' merged counts and purge decrements (integer
// sums, so the seeds are byte-identical to a single process holding the
// union of the shards' samples). A shard that fails mid-query (a typed
// *mpi.RankFailedError within the net timeout) is dropped: the engine
// replays the chosen seeds on fresh sessions over the survivors and the
// query finishes degraded, naming the failed shards. Failed shards are
// re-probed at most once per second and rejoin once they answer with a
// matching identity again.
type Router struct {
	conns []Conn
	canon ShardInfo // fleet-wide configuration (ShardIdx/Samples not meaningful)

	mu        sync.Mutex
	failed    []bool
	info      []ShardInfo
	lastProbe time.Time

	nextSession atomic.Uint64
	memo        trajMemo

	reg                                      *metrics.Registry
	mQueries, mDegraded, mFailovers, mRounds *metrics.Counter
	mTrajBuilds                              *metrics.Counter
	mShardsAlive                             *metrics.Gauge
	mLatency                                 *metrics.Histogram
}

// NewRouter probes every shard connection and validates that the fleet is
// coherent: conn i must be shard i of len(conns), and all shards must
// agree on the sketch configuration (graph digest, model, epsilon, kMax,
// seed, theta, vertex count, epoch). Shards that do not answer the probe
// start out failed (the fleet serves degraded until they rejoin); at
// least one shard must answer. reg may be nil.
func NewRouter(conns []Conn, reg *metrics.Registry) (*Router, error) {
	if len(conns) == 0 {
		return nil, errors.New("cluster: router needs at least one shard connection")
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	rt := &Router{
		conns:        conns,
		failed:       make([]bool, len(conns)),
		info:         make([]ShardInfo, len(conns)),
		reg:          reg,
		mQueries:     reg.Counter("router/queries"),
		mDegraded:    reg.Counter("router/degraded"),
		mFailovers:   reg.Counter("router/failovers"),
		mRounds:      reg.Counter("router/rounds"),
		mTrajBuilds:  reg.Counter("router/trajectory-builds"),
		mShardsAlive: reg.Gauge("router/shards-alive"),
		mLatency:     reg.Histogram("router/query-us"),
	}
	infos := make([]ShardInfo, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c Conn) {
			defer wg.Done()
			infos[i], errs[i] = c.Info()
		}(i, c)
	}
	wg.Wait()
	first := -1
	for i := range conns {
		if errs[i] == nil {
			first = i
			break
		}
	}
	if first < 0 {
		return nil, fmt.Errorf("cluster: no shard answered the startup probe (first error: %w)", errs[0])
	}
	rt.canon = infos[first]
	for i := range conns {
		if errs[i] != nil {
			rt.failed[i] = true
			continue
		}
		if err := rt.admit(i, infos[i]); err != nil {
			return nil, err
		}
	}
	rt.mShardsAlive.Set(int64(len(rt.slotsLocked(false))))
	return rt, nil
}

// admit validates one shard's identity against the fleet and records its
// info. Caller holds mu (or is still inside NewRouter).
func (rt *Router) admit(slot int, info ShardInfo) error {
	c := rt.canon
	switch {
	case info.ShardCount != len(rt.conns):
		return fmt.Errorf("cluster: shard %d says the fleet has %d shards, router has %d connections", slot, info.ShardCount, len(rt.conns))
	case info.ShardIdx != slot:
		return fmt.Errorf("cluster: connection %d reached shard %d; order the -shards list by shard index", slot, info.ShardIdx)
	case info.GraphDigest != c.GraphDigest, info.Model != c.Model, info.Epsilon != c.Epsilon,
		info.KMax != c.KMax, info.Seed != c.Seed, info.Theta != c.Theta,
		info.NumVertices != c.NumVertices, info.Epoch != c.Epoch:
		return fmt.Errorf("cluster: shard %d was sampled under a different configuration than shard %d (graph %016x vs %016x, model %d vs %d, eps %g vs %g, kMax %d vs %d, seed %d vs %d, theta %d vs %d, epoch %d vs %d)",
			slot, c.ShardIdx, info.GraphDigest, c.GraphDigest, info.Model, c.Model,
			info.Epsilon, c.Epsilon, info.KMax, c.KMax, info.Seed, c.Seed,
			info.Theta, c.Theta, info.Epoch, c.Epoch)
	}
	rt.info[slot] = info
	return nil
}

// Fleet reports the fleet-wide sketch configuration the router validated
// at startup.
func (rt *Router) Fleet() ShardInfo { return rt.canon }

// Shards returns the fleet width.
func (rt *Router) Shards() int { return len(rt.conns) }

// FailedShards returns the slots currently considered failed, sorted.
func (rt *Router) FailedShards() []int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.slotsLocked(true)
}

// slotsLocked lists the slots whose failed flag is failed, ascending.
func (rt *Router) slotsLocked(failed bool) []int {
	var out []int
	for i, f := range rt.failed {
		if f == failed {
			out = append(out, i)
		}
	}
	return out
}

// markFailed records slots as failed.
func (rt *Router) markFailed(slots []int) {
	rt.mu.Lock()
	for _, s := range slots {
		rt.failed[s] = true
	}
	alive := len(rt.slotsLocked(false))
	rt.mu.Unlock()
	rt.mShardsAlive.Set(int64(alive))
}

// alive returns the live slots, first re-probing failed shards (rate
// limited) so a restarted replica rejoins without a router restart. A
// rejoining shard must present the exact fleet identity it had before.
func (rt *Router) alive() []int {
	rt.mu.Lock()
	var toProbe []int
	if time.Since(rt.lastProbe) >= probeInterval {
		toProbe = rt.slotsLocked(true)
		rt.lastProbe = time.Now()
	}
	rt.mu.Unlock()
	if len(toProbe) > 0 {
		infos := make([]ShardInfo, len(toProbe))
		errs := make([]error, len(toProbe))
		var wg sync.WaitGroup
		for i, slot := range toProbe {
			wg.Add(1)
			go func(i, slot int) {
				defer wg.Done()
				infos[i], errs[i] = rt.conns[slot].Info()
			}(i, slot)
		}
		wg.Wait()
		rt.mu.Lock()
		for i, slot := range toProbe {
			if errs[i] == nil && rt.admit(slot, infos[i]) == nil {
				rt.failed[slot] = false
			}
		}
		rt.mu.Unlock()
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := rt.slotsLocked(false)
	rt.mShardsAlive.Set(int64(len(out)))
	return out
}

// RouterQuery is one routed selection request: imm.Query, answered over
// the fleet (DESIGN.md §17). Audience filtering and blocked purging are
// per-shard ops; the argmax runs router-side over the merged counts.
type RouterQuery = imm.Query

// SelectResult is one routed query's outcome.
type SelectResult struct {
	// Seeds is the selected set in greedy order; Gains[i] is the marginal
	// covered-sample count of Seeds[i] under the shards that contributed
	// to the final counter state (after a failover, gains are recomputed
	// over the survivors so the summary is self-consistent).
	Seeds []graph.Vertex
	Gains []int64
	// CoverageFraction is covered/total over the participating shards'
	// samples; EstimatedSpread is n * CoverageFraction.
	CoverageFraction float64
	EstimatedSpread  float64
	// Eligible is the participating samples passing the audience filter
	// (equals TotalSamples without one); SpentBudget the summed cost of
	// Seeds under a budgeted query (0 otherwise).
	Eligible    int64
	SpentBudget float64
	// ShardEpochs is each slot's last-known mutation epoch.
	ShardEpochs []uint64
	// Rounds counts greedy purge rounds, including failover replays.
	Rounds int
	FleetStatus
}

// FleetStatus is the part of a routed answer that describes the fleet
// rather than the question.
type FleetStatus struct {
	// Theta is the fleet's sample count; TotalSamples the samples actually
	// participating (smaller than Theta when shards are down).
	Theta        int64
	TotalSamples int64
	// Shards is the fleet width; FailedShards lists the slots that did not
	// participate (failed before or during this query), sorted; Degraded
	// mirrors len(FailedShards) > 0.
	Shards       int
	FailedShards []int
	Degraded     bool
	// Duration is the query wall time.
	Duration time.Duration
}

// Select runs the plain top-k query. onSeed, when non-nil, is called after
// each seed is committed; its gains are as of selection and may be
// restated in the result if a failover intervened.
func (rt *Router) Select(k int, onSeed func(i int, v graph.Vertex, gain int64)) (*SelectResult, error) {
	return rt.SelectQuery(RouterQuery{K: k}, onSeed)
}

// SelectQuery runs any routed query shape as the selection engine over
// the fleet's merged counts (fleetCoverage), byte-identically to
// imm.SelectQuerySketch over the union of the shards' samples; a degraded
// result is the survivors' exact answer. It never reads the trajectory,
// so it is the reference serveQuery is checked against.
func (rt *Router) SelectQuery(q RouterQuery, onSeed func(i int, v graph.Vertex, gain int64)) (*SelectResult, error) {
	return rt.selectQuery(context.Background(), q, onSeed)
}

// selectQuery is SelectQuery, abandoned before the next shard round once
// ctx is done: the shards' sessions are ended and ctx's error returned.
func (rt *Router) selectQuery(ctx context.Context, q RouterQuery, onSeed func(i int, v graph.Vertex, gain int64)) (*SelectResult, error) {
	start := time.Now()
	if err := rt.check(q); err != nil {
		return nil, err
	}
	fc := &fleetCoverage{rt: rt, ctx: ctx, slots: rt.alive()}
	if len(fc.slots) == 0 {
		return nil, ErrNoShards
	}
	rt.mQueries.Inc()
	qr, err := imm.Greedy(fc, rt.canon.NumVertices, q, onSeed)
	if err != nil {
		return nil, err
	}
	return rt.result(qr, fc.slots, fc.rounds, start), nil
}

// serveQuery answers q the way the router's front serves it: a Prefix
// query (imm.Query.Prefix) from the live slots' trajectory, which costs
// no shard round once built, and any other shape by SelectQuery. The
// trajectory's lines carry the result's gains. Once ctx is done the query
// runs no further shard round, ends its sessions and returns ctx's error;
// a trajectory build in flight is shared by every plain query, so it runs
// to the end, but a query waiting for it stops waiting.
func (rt *Router) serveQuery(ctx context.Context, q RouterQuery, onSeed func(i int, v graph.Vertex, gain int64)) (*SelectResult, error) {
	if !q.Prefix() {
		return rt.selectQuery(ctx, q, onSeed)
	}
	start := time.Now()
	if err := rt.check(q); err != nil {
		return nil, err
	}
	t, slots, rounds, err := rt.trajectory(ctx)
	if err != nil {
		return nil, err
	}
	qr, ok := t.Answer(q, onSeed)
	if !ok {
		return rt.selectQuery(ctx, q, onSeed)
	}
	rt.mQueries.Inc()
	return rt.result(qr, slots, rounds, start), nil
}

// check validates q against the fleet.
func (rt *Router) check(q RouterQuery) error {
	if q.K < 1 || q.K > rt.canon.KMax {
		return fmt.Errorf("cluster: k = %d, want 1 <= k <= kMax = %d", q.K, rt.canon.KMax)
	}
	return q.Validate(rt.canon.NumVertices)
}

// trajMemo is the router's plain trajectory (imm.Trajectory), keyed by the
// slots whose samples built it: shard sketches are immutable and admit
// pins the epoch, so the slot set is the whole key. At most one build is
// in flight; queries that need it wait on building.
type trajMemo struct {
	mu       sync.Mutex
	slots    []int
	t        *imm.Trajectory
	building chan struct{} // closed when the build in flight ends
}

// trajectory returns the trajectory of the live slots, the slots it was
// built over and the rounds this call spent: 0 on a memo hit, which sends
// no shard op (alive's rate-limited rejoin probe of failed shards aside),
// so a shard that dies is noticed by the next query that runs rounds.
// When the memo holds another slot set's, the call builds one or waits
// for the build in flight, until ctx is done.
func (rt *Router) trajectory(ctx context.Context) (*imm.Trajectory, []int, int, error) {
	m := &rt.memo
	for {
		slots := rt.alive()
		if len(slots) == 0 {
			return nil, nil, 0, ErrNoShards
		}
		m.mu.Lock()
		if m.t != nil && slices.Equal(m.slots, slots) {
			t := m.t
			m.mu.Unlock()
			return t, slots, 0, nil
		}
		if wait := m.building; wait != nil {
			m.mu.Unlock()
			select {
			case <-wait:
			case <-ctx.Done():
				return nil, nil, 0, ctx.Err()
			}
			continue
		}
		done := make(chan struct{})
		m.building = done
		m.mu.Unlock()

		rt.mTrajBuilds.Inc()
		fc := &fleetCoverage{rt: rt, ctx: context.Background(), slots: slots}
		t, err := imm.NewTrajectory(fc, rt.canon.NumVertices, rt.canon.KMax)
		m.mu.Lock()
		if err == nil && fc.restarts == 0 {
			// The greedy run over fc.slots: a slot lost at Start never
			// joined it, one lost at a purge would have restarted it.
			m.t, m.slots = t, slices.Clone(fc.slots)
		}
		m.building = nil
		m.mu.Unlock()
		close(done)
		return t, fc.slots, fc.rounds, err
	}
}

// result closes a routed selection's books over the slots that took part.
func (rt *Router) result(qr *imm.QueryResult, slots []int, rounds int, start time.Time) *SelectResult {
	res := &SelectResult{
		Seeds: qr.Seeds, Gains: qr.Gains,
		Eligible: qr.Eligible, SpentBudget: qr.SpentBudget,
		Rounds:      rounds,
		FleetStatus: rt.status(slots, start),
	}
	rt.mu.Lock()
	for i := range rt.conns {
		res.ShardEpochs = append(res.ShardEpochs, rt.info[i].Epoch)
	}
	rt.mu.Unlock()
	res.CoverageFraction, res.EstimatedSpread = res.estimate(qr.Covered, rt.canon.NumVertices)
	rt.mLatency.Observe(res.Duration.Microseconds())
	return res
}

// status closes a query's books: who took part, who is down.
func (rt *Router) status(slots []int, start time.Time) FleetStatus {
	st := FleetStatus{Theta: rt.canon.Theta, TotalSamples: rt.samplesOn(slots), Shards: len(rt.conns)}
	st.FailedShards = rt.FailedShards()
	if st.Degraded = len(st.FailedShards) > 0; st.Degraded {
		rt.mDegraded.Inc()
	}
	st.Duration = time.Since(start)
	return st
}

// estimate turns a covered-sample count into the coverage fraction over
// the participating samples and the spread estimate n times that.
func (st FleetStatus) estimate(covered int64, n int) (fraction, spread float64) {
	if st.TotalSamples > 0 {
		fraction = float64(covered) / float64(st.TotalSamples)
	}
	return fraction, fraction * float64(n)
}

// samplesOn sums the sample counts of slots.
func (rt *Router) samplesOn(slots []int) (total int64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, slot := range slots {
		total += int64(rt.info[slot].Samples)
	}
	return total
}

// fleetCoverage is the remote-shard coverage backend of one routed query:
// a session on every live slot, the shards' counts merged by integer
// addition. A slot whose purge fails is marked failed and dropped, and
// the engine is told to restart on the survivors. Each round first checks
// ctx, and fails with its error once it is done.
type fleetCoverage struct {
	rt         *Router
	ctx        context.Context
	slots      []int  // live slots holding this query's session
	session    uint64 // 0 while no session is open
	counter    []int64
	rounds     int
	restarts   int // purges that lost a slot and restarted the engine
	lastFailed int // slot of the latest mid-query failure
}

func (fc *fleetCoverage) Start(audience []graph.Vertex) ([]int64, int64, error) {
	if len(fc.slots) == 0 {
		return nil, 0, fmt.Errorf("cluster: every shard failed mid-query (last: shard %d)", fc.lastFailed)
	}
	if err := fc.ctx.Err(); err != nil {
		return nil, 0, err
	}
	fc.session = fc.rt.nextSession.Add(1)
	var eligible int64
	var err error
	fc.counter, eligible, fc.slots, err = fc.rt.startRound(fc.session, fc.slots, audience)
	if err == nil && len(audience) == 0 {
		eligible = fc.rt.samplesOn(fc.slots)
	}
	return fc.counter, eligible, err
}

func (fc *fleetCoverage) Purge(v graph.Vertex) (bool, error) {
	if err := fc.ctx.Err(); err != nil {
		return false, err
	}
	fc.rounds++
	fc.rt.mRounds.Inc()
	decs := make([][]DecPair, len(fc.slots))
	errs := fc.rt.fanout(fc.slots, func(i, slot int) (err error) {
		decs[i], err = fc.rt.conns[slot].Purge(fc.session, v)
		return err
	})
	if failed := failedSlots(fc.slots, errs); len(failed) > 0 {
		fc.rt.mFailovers.Inc()
		fc.restarts++
		fc.slots = fc.rt.drop(fc.slots, failed)
		fc.lastFailed = failed[len(failed)-1]
		fc.End() // the restart opens a fresh session; close the survivors' old one
		return true, nil
	}
	// Subtraction commutes, so arrival order is irrelevant.
	for _, ds := range decs {
		for _, p := range ds {
			fc.counter[p.V] -= int64(p.Dec)
		}
	}
	return false, nil
}

// End closes the open session, best-effort.
func (fc *fleetCoverage) End() {
	if fc.session == 0 {
		return
	}
	fc.rt.fanout(fc.slots, func(i, slot int) error { return fc.rt.conns[slot].End(fc.session) })
	fc.session = 0
}

// startRound opens session on every slot in parallel — plain, or filtered
// to the audience — and merges the shards' counts and eligible totals.
// Slots whose transport fails are dropped. A filtered start a healthy
// shard refuses in-band aborts the query instead: its replicas would all
// refuse alike, so failover would only erase the fleet.
func (rt *Router) startRound(session uint64, slots []int, audience []graph.Vertex) ([]int64, int64, []int, error) {
	n := rt.canon.NumVertices
	counts := make([][]int64, len(slots))
	eligs := make([]int64, len(slots))
	errs := rt.fanout(slots, func(i, slot int) (err error) {
		if len(audience) == 0 {
			counts[i], err = rt.conns[slot].Start(session)
		} else {
			counts[i], eligs[i], err = rt.conns[slot].StartFiltered(session, audience)
		}
		if err == nil && len(counts[i]) != n {
			err = failedErr(slot, fmt.Errorf("cluster: shard %d returned %d counts, want %d", slot, len(counts[i]), n))
		}
		return err
	})
	if len(audience) > 0 {
		if err := refusal(errs); err != nil {
			return nil, 0, slots, err
		}
	}
	merged := make([]int64, n)
	var eligible int64
	for i, c := range counts {
		if errs[i] != nil {
			continue
		}
		eligible += eligs[i]
		for v, x := range c {
			merged[v] += x
		}
	}
	if slots = rt.drop(slots, failedSlots(slots, errs)); len(slots) == 0 {
		return nil, 0, nil, ErrNoShards
	}
	return merged, eligible, slots, nil
}

// SpreadResult is one routed spread estimate's outcome.
type SpreadResult struct {
	// Covered is how many participating samples the seed set covers;
	// Eligible how many pass the audience filter (all participating
	// samples without one).
	Covered  int64
	Eligible int64
	// CoverageFraction is Covered/TotalSamples; EstimatedSpread is
	// n * CoverageFraction — with an audience, the expected number of
	// audience members influenced.
	CoverageFraction float64
	EstimatedSpread  float64
	FleetStatus
}

// Spread estimates the influence of a caller-supplied seed set over the
// fleet's samples — the routed face of imm.CoverageOf. It is stateless
// (no session): each shard counts its covered and eligible samples and
// the router sums, so the estimate is byte-identical to a single process
// holding the union of the shards' samples. audience may be empty
// (unrestricted); a vertex out of range is refused in-band by the shards.
func (rt *Router) Spread(seeds, audience []graph.Vertex) (*SpreadResult, error) {
	start := time.Now()
	n := rt.canon.NumVertices
	if len(seeds) == 0 {
		return nil, errors.New("cluster: spread needs at least one seed")
	}
	alive := rt.alive()
	if len(alive) == 0 {
		return nil, ErrNoShards
	}
	rt.mQueries.Inc()
	covs := make([]int64, len(alive))
	eligs := make([]int64, len(alive))
	errs := rt.fanout(alive, func(i, slot int) (err error) {
		covs[i], eligs[i], err = rt.conns[slot].Spread(seeds, audience)
		return err
	})
	if err := refusal(errs); err != nil {
		return nil, err
	}
	res := &SpreadResult{}
	for i, err := range errs {
		if err == nil {
			res.Covered += covs[i]
			res.Eligible += eligs[i]
		}
	}
	if alive = rt.drop(alive, failedSlots(alive, errs)); len(alive) == 0 {
		return nil, ErrNoShards
	}
	res.FleetStatus = rt.status(alive, start)
	res.CoverageFraction, res.EstimatedSpread = res.estimate(res.Covered, n)
	rt.mLatency.Observe(res.Duration.Microseconds())
	return res, nil
}

// fanout runs f(i, slot) concurrently over slots and returns each call's
// error, in slots order.
func (rt *Router) fanout(slots []int, f func(i, slot int) error) []error {
	errs := make([]error, len(slots))
	var wg sync.WaitGroup
	for i, slot := range slots {
		wg.Add(1)
		go func(i, slot int) {
			defer wg.Done()
			errs[i] = f(i, slot)
		}(i, slot)
	}
	wg.Wait()
	return errs
}

// failedSlots lists the slots whose call failed, in slots order
// (deterministic for a given failure set).
func failedSlots(slots []int, errs []error) []int {
	var failed []int
	for i, err := range errs {
		if err != nil {
			failed = append(failed, slots[i])
		}
	}
	return failed
}

// refusal returns the first error that is not a transport failure: a
// healthy shard answering the op with an in-band error.
func refusal(errs []error) error {
	for _, err := range errs {
		var rf *mpi.RankFailedError
		if err != nil && !errors.As(err, &rf) {
			return err
		}
	}
	return nil
}

// drop marks the failed slots and returns slots without them, order
// preserved.
func (rt *Router) drop(slots, failed []int) []int {
	if len(failed) == 0 {
		return slots
	}
	rt.markFailed(failed)
	return slices.DeleteFunc(slots, func(s int) bool { return slices.Contains(failed, s) })
}
