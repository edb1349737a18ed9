package imm

import (
	"errors"
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
type fakeCoverage struct {
	n       int
	samples [][]graph.Vertex // live samples; a sample's root is its first member

	restartAt, failAt int
	restartEvery      bool

	purges   int
	restarts int
	ended    bool
	counts   []int64
	covered  []bool
	onFault  func() // called when a scripted fault fires
}

var errFakeDown = errors.New("fake backend down")

func (f *fakeCoverage) Start(audience []graph.Vertex) ([]int64, int64, error) {
	if len(f.samples) == 0 {
		return nil, 0, errFakeDown
	}
	f.counts = make([]int64, f.n)
	f.covered = make([]bool, len(f.samples))
	var eligible int64
	for j, s := range f.samples {
		if len(audience) > 0 && !slices.Contains(audience, s[0]) {
			f.covered[j] = true
			continue
		}
		eligible++
		for _, u := range s {
			f.counts[u]++
		}
	}
	return f.counts, eligible, nil
}

func (f *fakeCoverage) Purge(v graph.Vertex) (bool, error) {
	f.purges++
	if f.purges == f.failAt {
		f.onFault()
		return false, errFakeDown
	}
	if f.purges == f.restartAt || f.restartEvery {
		f.onFault()
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
			f.counts[u]--
		}
	}
	return false, nil
}

func (f *fakeCoverage) End() { f.ended = true }

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
		clean, err := Greedy(&fakeCoverage{n: n, samples: fakeSamples(9, n, count)}, n, q, 3, nil)
		if err != nil || len(clean.Seeds) < 3 {
			t.Fatalf("%s: clean run: %d seeds, %v", name, len(clean.Seeds), err)
		}
		for _, at := range []int{1, 2, len(clean.Seeds) - 1} {
			committed, atFault := 0, -1
			onSeed := func(int, graph.Vertex, int64) { committed++ }
			f := &fakeCoverage{n: n, samples: fakeSamples(9, n, count), restartAt: at,
				onFault: func() { atFault = committed }}
			res, err := Greedy(f, n, q, 3, onSeed)
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
			oracle := &fakeCoverage{n: n, samples: f.samples}
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
		f := &fakeCoverage{n: n, samples: fakeSamples(9, n, count), restartEvery: true, onFault: func() {}}
		res, err := Greedy(f, n, q, 3, nil)
		if !errors.Is(err, errFakeDown) || res == nil || f.restarts == 0 {
			t.Fatalf("%s restart-every: res %v err %v after %d restarts", name, res, err, f.restarts)
		}

		// Hard failure on the third purge: partial seeds with the error.
		committed, atFault := 0, -1
		f = &fakeCoverage{n: n, samples: fakeSamples(9, n, count), failAt: 3,
			onFault: func() { atFault = committed }}
		res, err = Greedy(f, n, q, 3, func(int, graph.Vertex, int64) { committed++ })
		if !errors.Is(err, errFakeDown) || len(res.Seeds) != atFault || !slices.Equal(res.Seeds, clean.Seeds[:atFault]) {
			t.Fatalf("%s fail@3: seeds %v (committed %d), err %v; clean %v", name, res.Seeds, atFault, err, clean.Seeds)
		}
	}
}
