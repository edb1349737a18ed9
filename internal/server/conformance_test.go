package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"influmax/internal/cluster"
	"influmax/internal/diffuse"
	"influmax/internal/front"
	"influmax/internal/mpi"
)

// seedsResponse and spreadResponse name the front's answers in this
// package's tests.
type (
	seedsResponse  = front.SeedsResponse
	spreadResponse = front.SpreadResponse
)

// Keys only one backend's answers carry; every other key is shared.
var (
	localKeys = []string{"cached", "source", "deltaEpoch", "report"}
	fleetKeys = []string{"totalSamples", "shards", "degraded", "failedShards", "shardEpochs", "rounds"}
)

// TestFrontConformance sends one table of bodies to immserve over the
// whole sketch and to the router over a 2-shard comm fleet sampled at the
// same configuration. Both fronts must answer every body with the same
// status; a 200 must carry the same selection (seeds, gains, coverage,
// theta, eligible, spent budget) or spread estimate, no plain-answer
// extras, and the same top-level keys apart from each backend's own.
func TestFrontConformance(t *testing.T) {
	g := testGraph(23, 100, 700)
	n := g.NumVertices()
	cfg := Config{Graph: g, Model: diffuse.IC, Epsilon: 0.5, KMax: 10, Seed: 29, Workers: 2}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	local := httptest.NewServer(s.Handler())
	defer local.Close()

	shards, err := cluster.BuildShards(g, cluster.BuildOptions{
		K: cfg.KMax, Epsilon: cfg.Epsilon, Model: cfg.Model, Seed: cfg.Seed, Workers: 2, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	comms := mpi.NewLocalCluster(len(shards) + 1)
	conns := make([]cluster.Conn, len(shards))
	for i, sh := range shards {
		go cluster.ServeComm(comms[i+1], 0, sh)
		conns[i] = cluster.NewCommConn(comms[0], i+1, i, 5*time.Second)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	rt, err := cluster.NewRouter(conns, nil)
	if err != nil {
		t.Fatal(err)
	}
	routed := httptest.NewServer(cluster.NewRouterServer(rt, cluster.RouterServerConfig{}).Handler())
	defer routed.Close()

	costs := make([]string, n)
	for v := range costs {
		costs[v] = fmt.Sprint(1 + uint64(v)*2654435761%4)
	}
	costsJSON := "[" + strings.Join(costs, ",") + "]"
	const audience, blocked = "[0,3,6,9,12,15,18,21,24,27,30]", "[1,2]"
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/v1/seeds", `{"k":5}`, 200},
		{"/v1/seeds", `{"k":5,"costs":` + costsJSON + `,"budget":6}`, 200},
		{"/v1/seeds", `{"k":5,"budget":3}`, 200},
		{"/v1/seeds", `{"k":5,"audience":` + audience + `}`, 200},
		{"/v1/seeds", `{"k":5,"blocked":` + blocked + `}`, 200},
		{"/v1/seeds", `{"k":5,"budget":4,"audience":` + audience + `,"blocked":` + blocked + `}`, 200},
		{"/v1/spread", `{"seeds":[0,1,2]}`, 200},
		{"/v1/spread", `{"seeds":[0,1,2],"audience":` + audience + `}`, 200},
		{"/v1/seeds", `{"k":5,"stream":true}`, 200},
		{"/v1/seeds", `{"k":4,"budget":3,"stream":true}`, 200},
		{"/v1/seeds", `{"k":0}`, 400},
		{"/v1/seeds", `{"k":11}`, 400},
		{"/v1/seeds", `{"k":5,"costs":[1,2],"budget":3}`, 400},
		{"/v1/seeds", `{"k":5,"budget":-1}`, 400},
		{"/v1/seeds", `{"k":5,"blocked":[100000]}`, 400},
		{"/v1/seeds", `seeds please`, 400},
		{"/v1/spread", `{"seeds":[]}`, 400},
		{"/v1/spread", `{"seeds":[1],"audience":[100000]}`, 400},
		// Overrides: immserve refuses this one as out of range, the router
		// refuses every override (a valid one would select another sketch
		// on immserve, and 400 on the router).
		{"/v1/seeds", `{"k":5,"epsilon":2}`, 400},
	} {
		name := tc.path + " " + tc.body
		if len(name) > 80 {
			name = name[:80]
		}
		ls, lb := postRaw(t, local.URL+tc.path, tc.body)
		rs, rb := postRaw(t, routed.URL+tc.path, tc.body)
		if ls != tc.status || rs != tc.status {
			t.Fatalf("%s: immserve %d, router %d, want %d\n%s\n%s", name, ls, rs, tc.status, lb, rb)
		}
		if tc.status != http.StatusOK {
			continue
		}
		if strings.Contains(tc.body, `"stream":true`) {
			ll, rl := bytes.Split(bytes.TrimSpace(lb), []byte("\n")), bytes.Split(bytes.TrimSpace(rb), []byte("\n"))
			if len(ll) != len(rl) || len(ll) < 2 {
				t.Fatalf("%s: %d and %d NDJSON lines", name, len(ll), len(rl))
			}
			for i := range ll[:len(ll)-1] {
				if !bytes.Equal(ll[i], rl[i]) {
					t.Fatalf("%s: seed line %d differs: %s vs %s", name, i, ll[i], rl[i])
				}
			}
			lb, rb = ll[len(ll)-1], rl[len(rl)-1]
		}
		shared := []string{"seeds", "gains", "coverageFraction", "theta", "eligible", "spentBudget"}
		if tc.path == "/v1/spread" {
			shared = []string{"covered", "eligible", "coverageFraction", "estimatedSpread", "theta"}
		}
		lm, rm := rawFields(t, lb), rawFields(t, rb)
		for _, key := range shared {
			if !bytes.Equal(lm[key], rm[key]) {
				t.Fatalf("%s: %s differs: immserve %s, router %s", name, key, lm[key], rm[key])
			}
		}
		if plain := tc.body == `{"k":5}` || tc.body == `{"k":5,"stream":true}`; plain {
			for _, key := range []string{"gains", "eligible", "spentBudget"} {
				if lm[key] != nil || rm[key] != nil {
					t.Fatalf("%s: plain answer carries %s", name, key)
				}
			}
		}
		if lk, rk := keysWithout(lm, localKeys), keysWithout(rm, fleetKeys); !slices.Equal(lk, rk) {
			t.Fatalf("%s: shared keys differ: immserve %v, router %v", name, lk, rk)
		}
	}
}

func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func rawFields(t *testing.T, raw []byte) map[string]json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return m
}

// keysWithout lists m's keys outside own, sorted.
func keysWithout(m map[string]json.RawMessage, own []string) []string {
	var keys []string
	for k := range m {
		if !slices.Contains(own, k) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}
