package imm

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"influmax/internal/graph"
	"influmax/internal/rng"
)

// fakeCoverage is an in-memory coverage backend with scripted faults: at
// purge call number restartAt (1-based; every call when restartEvery) it
// drops every second live sample and reports a restart instead of
// purging; at call failAt it fails hard. Start fails once no sample is
// left, as the restart contract requires.
type fakeCoverage[C Count] struct {
	n       int
	samples [][]graph.Vertex // live samples; a sample's root is its first member

	restartAt, failAt int
	restartEvery      bool

	purges    int
	restarts  int
	ended     bool
	counts    []C
	covered   []bool
	onFault   func() // called when a scripted fault fires
	marksOnly bool   // purges mark samples covered and move no count (recountingFake)
	weight    int64  // what one sample adds to a count and to eligible; 0 means 1
}

// w is one sample's weight.
func (f *fakeCoverage[C]) w() int64 { return max(f.weight, 1) }

var errFakeDown = errors.New("fake backend down")

func (f *fakeCoverage[C]) Start(audience []graph.Vertex) ([]C, int64, error) {
	if len(f.samples) == 0 {
		return nil, 0, errFakeDown
	}
	f.counts = make([]C, f.n)
	f.covered = make([]bool, len(f.samples))
	var eligible int64
	for j, s := range f.samples {
		if len(audience) > 0 && !slices.Contains(audience, s[0]) {
			f.covered[j] = true
			continue
		}
		eligible += f.w()
		for _, u := range s {
			f.counts[u] += C(f.w())
		}
	}
	return f.counts, eligible, nil
}

func (f *fakeCoverage[C]) Purge(v graph.Vertex) (bool, error) {
	f.purges++
	if f.purges == f.failAt {
		f.fault()
		return false, errFakeDown
	}
	if f.purges == f.restartAt || f.restartEvery {
		f.fault()
		f.restarts++
		var kept [][]graph.Vertex
		for j, s := range f.samples {
			if j%2 == 0 {
				kept = append(kept, s)
			}
		}
		f.samples = kept[:len(f.samples)/2] // strictly fewer, so restarts end
		return true, nil
	}
	for j, s := range f.samples {
		if f.covered[j] || !slices.Contains(s, v) {
			continue
		}
		f.covered[j] = true
		for _, u := range s {
			if !f.marksOnly {
				f.counts[u] -= C(f.w())
			}
		}
	}
	return false, nil
}

func (f *fakeCoverage[C]) End() { f.ended = true }

// recountingFake is a fakeCoverage whose counts only Recount brings up
// to date: its purges leave them as upper bounds, as IndexCoverage's do.
type recountingFake[C Count] struct{ *fakeCoverage[C] }

func (f recountingFake[C]) Recount(vs []graph.Vertex, out []C) error {
	for i, v := range vs {
		out[i] = 0
		for j, s := range f.samples {
			if !f.covered[j] && slices.Contains(s, v) {
				out[i] += C(f.w())
			}
		}
	}
	return nil
}

func (f *fakeCoverage[C]) fault() {
	if f.onFault != nil {
		f.onFault()
	}
}

func fakeSamples(seed uint64, n, count int) [][]graph.Vertex {
	r := rng.New(rng.NewLCG(seed))
	samples := make([][]graph.Vertex, count)
	for j := range samples {
		for len(samples[j]) < 1+r.Intn(6) {
			if v := graph.Vertex(r.Intn(n)); !slices.Contains(samples[j], v) {
				samples[j] = append(samples[j], v)
			}
		}
	}
	return samples
}

// TestGreedyReplayOverFakeBackend pins the engine's restart-and-replay
// step — the one behaviour no local backend can trigger — for every query
// shape: a restart mid-selection keeps the committed seed prefix, restates
// every gain over the surviving samples and keeps covered == sum(gains);
// repeated restarts terminate with the backend's error; and a hard
// failure returns the seeds committed so far alongside the error.
func TestGreedyReplayOverFakeBackend(t *testing.T) {
	const n, count, k = 40, 400, 8
	costs := queryCosts(n)
	var audience []graph.Vertex
	for v := 0; v < n; v += 2 {
		audience = append(audience, graph.Vertex(v))
	}
	queries := map[string]Query{
		"plain":    {K: k},
		"budgeted": {K: k, Costs: costs, Budget: 12},
		"blocked":  {K: k, Blocked: []graph.Vertex{3, 7, 3}},
		"audience": {K: k, Audience: audience},
		"combined": {K: k, Budget: 5, Audience: audience, Blocked: []graph.Vertex{2}},
	}
	for name, q := range queries {
		clean, err := Greedy(&fakeCoverage[int64]{n: n, samples: fakeSamples(9, n, count)}, n, q, nil)
		if err != nil || len(clean.Seeds) < 3 {
			t.Fatalf("%s: clean run: %d seeds, %v", name, len(clean.Seeds), err)
		}
		for _, at := range []int{1, 2, len(clean.Seeds) - 1} {
			committed, atFault := 0, -1
			onSeed := func(int, graph.Vertex, int64) { committed++ }
			f := &fakeCoverage[int64]{n: n, samples: fakeSamples(9, n, count), restartAt: at,
				onFault: func() { atFault = committed }}
			res, err := Greedy(f, n, q, onSeed)
			if err != nil || f.restarts != 1 || !f.ended {
				t.Fatalf("%s restart@%d: err %v, %d restarts, ended %v", name, at, err, f.restarts, f.ended)
			}
			if !slices.Equal(res.Seeds[:atFault], clean.Seeds[:atFault]) {
				t.Fatalf("%s restart@%d: committed prefix %v changed from %v", name, at, res.Seeds[:atFault], clean.Seeds[:atFault])
			}
			// The survivors' exact answer: replaying the final seeds over a
			// fault-free backend holding only the surviving samples must
			// restate the same gains.
			want := make([]int64, 0, len(res.Seeds))
			oracle := &fakeCoverage[int64]{n: n, samples: f.samples}
			counts, eligible, _ := oracle.Start(q.Audience)
			for _, b := range q.Blocked {
				oracle.Purge(b)
			}
			for _, s := range res.Seeds {
				want = append(want, counts[s])
				oracle.Purge(s)
			}
			var sum int64
			for _, g := range res.Gains {
				sum += g
			}
			if !slices.Equal(res.Gains, want) || res.Covered != sum || res.Eligible != eligible {
				t.Fatalf("%s restart@%d: gains %v covered %d eligible %d, survivors say %v / %d / %d",
					name, at, res.Gains, res.Covered, res.Eligible, want, sum, eligible)
			}
		}

		// Restarts on every purge: the backend runs out of samples and the
		// loop ends with its error, seeds so far in hand.
		f := &fakeCoverage[int64]{n: n, samples: fakeSamples(9, n, count), restartEvery: true}
		res, err := Greedy(f, n, q, nil)
		if !errors.Is(err, errFakeDown) || res == nil || f.restarts == 0 {
			t.Fatalf("%s restart-every: res %v err %v after %d restarts", name, res, err, f.restarts)
		}

		// Hard failure on the third purge: partial seeds with the error.
		committed, atFault := 0, -1
		f = &fakeCoverage[int64]{n: n, samples: fakeSamples(9, n, count), failAt: 3,
			onFault: func() { atFault = committed }}
		res, err = Greedy(f, n, q, func(int, graph.Vertex, int64) { committed++ })
		if !errors.Is(err, errFakeDown) || len(res.Seeds) != atFault || !slices.Equal(res.Seeds, clean.Seeds[:atFault]) {
			t.Fatalf("%s fail@3: seeds %v (committed %d), err %v; clean %v", name, res.Seeds, atFault, err, clean.Seeds)
		}
	}
}

// denseGreedy is the engine with the argmax it had before the lazy heap:
// every round scans all n counters for the best unchosen, affordable
// vertex in the DESIGN.md §18.2 order. Kept here as the reference the heap
// must match seed for seed, gain for gain, restarts included.
func denseGreedy[C Count](be Coverage[C], n int, q Query) (*QueryResult, error) {
	res := &QueryResult{}
	chosen := make([]bool, n)
	cost := func(v int) float64 {
		if len(q.Costs) == 0 {
			return 1
		}
		return q.Costs[v]
	}
	var counter []C
	establish := func() (err error) {
	restart:
		if counter, res.Eligible, err = be.Start(q.Audience); err != nil {
			return err
		}
		res.Covered = 0
		replay := append(slices.Clone(q.Blocked), res.Seeds...)
		for i, v := range replay {
			if i < len(q.Blocked) {
				if chosen[v] = true; counter[v] == 0 {
					continue
				}
			} else {
				res.Gains[i-len(q.Blocked)] = int64(counter[v])
				res.Covered += int64(counter[v])
			}
			if restarted, err := be.Purge(v); err != nil {
				return err
			} else if restarted {
				goto restart
			}
		}
		return nil
	}
	err := establish()
	for err == nil && len(res.Seeds) < q.K {
		arg, bestR, best := -1, 0.0, int64(-1)
		for v := 0; v < n; v++ {
			if chosen[v] || q.Budgeted() && res.SpentBudget+cost(v) > q.Budget {
				continue
			}
			c := int64(counter[v])
			if r := float64(c) / cost(v); arg < 0 || ratioBetter(r, c, v, bestR, best, arg) {
				arg, bestR, best = v, r, c
			}
		}
		if arg < 0 {
			break
		}
		res.Seeds = append(res.Seeds, graph.Vertex(arg))
		res.Gains = append(res.Gains, best)
		res.Covered += best
		chosen[arg] = true
		if q.Budgeted() {
			res.SpentBudget += cost(arg)
		}
		var restarted bool
		if restarted, err = be.Purge(graph.Vertex(arg)); restarted && err == nil {
			err = establish()
		}
	}
	be.End()
	return res, err
}

// lazyMatchesDense runs every case over both engines with counter type C.
func lazyMatchesDense[C Count](t *testing.T) {
	const n = 60
	// Costs in {1, 2, 4} make equal ratios out of unequal gains (2/1 = 4/2),
	// so the order's second and third keys decide.
	costs := make([]float64, n)
	for v := range costs {
		costs[v] = float64(int(1) << (v % 3))
	}
	var audience []graph.Vertex
	for v := 0; v < n; v += 3 {
		audience = append(audience, graph.Vertex(v))
	}
	// Few vertices in few small samples: counts tie everywhere, and most
	// vertices have none, so a long selection is mostly padding seeds.
	sparse := fakeSamples(4, n/4, 30)
	dense := fakeSamples(9, n, 500)
	cases := []struct {
		name    string
		samples [][]graph.Vertex
		q       Query
	}{
		{"plain", dense, Query{K: 12}},
		{"count ties", sparse, Query{K: 10}},
		{"padding", sparse, Query{K: n - 5}},
		{"k past n", sparse, Query{K: n + 7}},
		{"all of dense", dense, Query{K: n}},
		{"budget only", dense, Query{K: 20, Budget: 7}},
		// JSON "costs":[] decodes to an empty non-nil slice: no costs at all.
		{"empty costs", dense, Query{K: 12, Costs: []float64{}}},
		{"empty costs, budget", dense, Query{K: 20, Costs: []float64{}, Budget: 7}},
		{"ratio ties", dense, Query{K: 20, Costs: costs, Budget: 25}},
		{"ratio ties, padding", sparse, Query{K: n, Costs: costs, Budget: 40}},
		{"budget below every cost", dense, Query{K: 5, Costs: costs, Budget: 0.5}},
		{"blocked", dense, Query{K: 12, Blocked: []graph.Vertex{3, 7, 3, 11}}},
		{"blocked padding", sparse, Query{K: n, Blocked: []graph.Vertex{0, 1, 40}}},
		{"audience", dense, Query{K: 12, Audience: audience}},
		{"everything", dense, Query{K: 15, Costs: costs, Budget: 18, Audience: audience, Blocked: []graph.Vertex{2, 9}}},
	}
	for _, tc := range cases {
		// Restart scripts: none, then one at each of the first purges (the
		// blocked replay included), then one on every purge until the
		// backend gives up.
		for at := 0; at <= 6; at++ {
			checkLazy(t, fmt.Sprintf("%s restart@%d", tc.name, at), n, tc.q, func() *fakeCoverage[C] {
				return &fakeCoverage[C]{n: n, samples: tc.samples, restartAt: at, restartEvery: at == 6}
			})
		}
	}
}

// checkLazy runs q through Greedy and denseGreedy over fresh backends from
// script, and through Greedy once more with the backend's purges leaving
// its counts as upper bounds between recounts; all three must agree.
func checkLazy[C Count](t *testing.T, name string, n int, q Query, script func() *fakeCoverage[C]) {
	t.Helper()
	want, wantErr := denseGreedy[C](script(), n, q)
	f := script()
	got, err := Greedy[C](f, n, q, nil)
	if !sameResult(got, want) || !errors.Is(err, wantErr) || !f.ended {
		t.Fatalf("%s: lazy %+v (%v), dense %+v (%v)", name, got, err, want, wantErr)
	}
	f = script()
	f.marksOnly = true
	got, err = Greedy[C](recountingFake[C]{f}, n, q, nil)
	if !sameResult(got, want) || !errors.Is(err, wantErr) || !f.ended {
		t.Fatalf("%s: recounted %+v (%v), dense %+v (%v)", name, got, err, want, wantErr)
	}
}

// TestLazyArgmaxMatchesDenseScan pins the lazy argmax to the dense scan it
// replaced, for both counter widths, over a decrementing and a
// recounting backend.
func TestLazyArgmaxMatchesDenseScan(t *testing.T) {
	t.Run("int32", lazyMatchesDense[int32])
	t.Run("int64", lazyMatchesDense[int64])
}

// FuzzGreedyMatchesDenseScan draws a tiny weighted sample set, a query
// and a restart script from the input and holds Greedy to the dense scan
// for both counter widths, over a decrementing and a recounting backend.
// Costs in {1/2, 1, 3/2, 2} tie ratios, at the order's minCost bound too;
// a blocked list can name the vertex of largest count (the order's head);
// budgets drop unaffordable tops; k runs past n into padding; and sample
// weights of up to 256 — up to 2^47 for int64 counts — put the largest
// count past n, onto the comparison sort.
func FuzzGreedyMatchesDenseScan(f *testing.F) {
	f.Add([]byte{5, 12, 3, 0, 1, 2, 4, 3, 1, 4, 2, 0, 0, 0, 3, 1, 0, 0})
	f.Add([]byte{8, 30, 6, 7, 1, 1, 1, 3, 5, 7, 2, 2, 9, 0, 4, 4, 4, 1, 6, 200, 39, 9, 15, 11, 1, 2, 3, 4, 5, 6, 7, 8, 2})
	f.Add([]byte{16, 40, 200, 3, 17, 99, 250, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 0, 18, 11, 3, 2, 1, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		n := 1 + next()%16
		samples := make([][]graph.Vertex, 1+next()%40)
		for j := range samples {
			for range 1 + next()%n {
				if v := graph.Vertex(next() % n); !slices.Contains(samples[j], v) {
					samples[j] = append(samples[j], v)
				}
			}
		}
		weight, shift := int64(1+next()), next()%40
		q := Query{K: 1 + next()%(n+2)}
		mode := next()
		if mode&1 != 0 {
			q.Budget = float64(next()%(2*n)) / 2
		}
		if mode&2 != 0 && q.Budgeted() {
			q.Costs = make([]float64, n)
			for v := range q.Costs {
				q.Costs[v] = float64(1+next()%4) / 2
			}
		}
		if mode&4 != 0 {
			for v := range n {
				if next()%2 == 1 {
					q.Audience = append(q.Audience, graph.Vertex(v))
				}
			}
		}
		if mode&8 != 0 {
			deg := make([]int, n)
			for _, s := range samples {
				for _, u := range s {
					deg[u]++
				}
			}
			q.Blocked = append(q.Blocked, graph.Vertex(slices.Index(deg, slices.Max(deg))))
		}
		for range next() % 4 {
			q.Blocked = append(q.Blocked, graph.Vertex(next()%n))
		}
		at := next() % 8
		checkLazy(t, fmt.Sprintf("int32 %+v restart@%d", q, at), n, q, func() *fakeCoverage[int32] {
			return &fakeCoverage[int32]{n: n, samples: samples, weight: weight, restartAt: at, restartEvery: at == 7}
		})
		checkLazy(t, fmt.Sprintf("int64 %+v restart@%d", q, at), n, q, func() *fakeCoverage[int64] {
			return &fakeCoverage[int64]{n: n, samples: samples, weight: weight << shift, restartAt: at, restartEvery: at == 7}
		})
	})
}
