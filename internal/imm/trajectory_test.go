package imm

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"influmax/internal/graph"
)

// streamed records what Greedy's streaming hook sees.
type streamed []string

func (s *streamed) hook(i int, v graph.Vertex, gain int64) {
	*s = append(*s, fmt.Sprint(i, v, gain))
}

// TestTrajectoryAnswersPrefixQueries pins the trajectory's rule over the
// in-memory backend: every plain k and every budget without costs —
// below one seed, fractional, exact, and past K — is answered exactly as
// Greedy answers it (result and streamed lines), including K past the
// positive-gain vertices, where the answer pads with zero-gain seeds; a
// query with costs, an audience or a blocked set is refused; and nothing
// handed out aliases the trajectory.
func TestTrajectoryAnswersPrefixQueries(t *testing.T) {
	const n = 30
	samples := fakeSamples(17, n, 25)
	fresh := func() *fakeCoverage[int32] { return &fakeCoverage[int32]{n: n, samples: samples} }
	traj, err := NewTrajectory(fresh(), n, n)
	if err != nil {
		t.Fatal(err)
	}
	if traj.res.Gains[n-1] != 0 {
		t.Fatalf("gains %v: want the run to pad with zero-gain seeds", traj.res.Gains)
	}
	var queries []Query
	for k := 1; k <= n; k++ {
		queries = append(queries, Query{K: k})
		for _, b := range []float64{0.5, 1, 5.5, float64(k), 1e308} {
			queries = append(queries, Query{K: k, Budget: b})
		}
	}
	for _, q := range queries {
		var gotLines, wantLines streamed
		got, ok := traj.Answer(q, gotLines.hook)
		if !ok {
			t.Fatalf("%+v: trajectory refused a prefix query", q)
		}
		want, err := Greedy[int32](fresh(), n, q, wantLines.hook)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotLines, wantLines) {
			t.Fatalf("%+v:\n trajectory %+v streamed %v\n greedy     %+v streamed %v", q, got, gotLines, want, wantLines)
		}
		if len(got.Seeds) > 0 {
			got.Seeds[0], got.Gains[0] = n+1, -1
			if traj.res.Seeds[0] == n+1 || traj.res.Gains[0] == -1 {
				t.Fatalf("%+v: the answer aliases the trajectory", q)
			}
		}
	}

	costs := make([]float64, n)
	for v := range costs {
		costs[v] = 1
	}
	for _, q := range []Query{
		{K: 3, Budget: 5, Costs: costs},
		{K: 3, Audience: []graph.Vertex{samples[0][0]}},
		{K: 3, Blocked: []graph.Vertex{traj.res.Seeds[0]}},
	} {
		if res, ok := traj.Answer(q, func(int, graph.Vertex, int64) { t.Fatal("a refused query streamed") }); ok || res != nil {
			t.Fatalf("%+v: trajectory answered a query Greedy must run", q)
		}
	}
	if _, ok := traj.Answer(Query{K: n + 1}, nil); ok {
		t.Fatal("trajectory answered past its own length")
	}
	if _, ok := traj.Answer(Query{K: n + 1, Budget: math.Nextafter(float64(n+1), 0)}, nil); !ok {
		t.Fatal("a budget capping K to the run's length must be answered")
	}
}
