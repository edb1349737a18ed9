package dist

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/mpi"
	"influmax/internal/rrr"
	"influmax/internal/trace"
)

// runPartPlan executes a graph-partitioned run on p local ranks with every
// endpoint wrapped in the fault plan, surfacing per-rank errors.
func runPartPlan(p int, plan mpi.FaultPlan, g *graph.Graph, opt PartOptions) ([]*PartResult, []error) {
	inner := mpi.NewLocalCluster(p)
	results := make([]*PartResult, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := mpi.WithFaults(inner[rank], plan)
			defer c.Close()
			results[rank], errs[rank] = RunPartitioned(c, g, opt)
		}(r)
	}
	wg.Wait()
	return results, errs
}

func TestPartitionedRankKillDegradesGracefully(t *testing.T) {
	// Kill a rank inside the final selection: every rank must come back
	// with a RankFailedError and a partial result whose seeds are a prefix
	// of the fault-free run's — not a hang, not a nil.
	g := testGraph(28, 90, 600)
	opt := PartOptions{K: 6, Epsilon: 0.5, Model: diffuse.IC, Seed: 19, Batch: 64}
	const p, victim = 3, 1
	plan := mpi.FaultPlan{Seed: 9, RecvTimeout: 300 * time.Millisecond}
	clean, errs := runPartPlan(p, plan, g, opt)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("fault-free rank %d: %v", r, err)
		}
	}
	// The last sends of a run are its final selection's: a Start and one
	// purge per seed, each with at least one send from a rank other than 0,
	// and at most three in a purge (the owner's two-hop broadcast plus the
	// gather). Failing the victim's fourth-to-last send therefore lands in
	// the final selection, before its last purge.
	plan.Crashes = []mpi.RankCrash{{Rank: victim, AfterSends: int(clean[victim].CommStats.Sends) - 4}}
	start := time.Now()
	results, errs := runPartPlan(p, plan, g, opt)
	if el := time.Since(start); el > 60*time.Second {
		t.Fatalf("degraded run took %v; failure detection is not bounding waits", el)
	}
	for r := 0; r < p; r++ {
		var rf *mpi.RankFailedError
		if !errors.As(errs[r], &rf) {
			t.Fatalf("rank %d: %v, want RankFailedError", r, errs[r])
		}
		res := results[r]
		if res == nil {
			t.Fatalf("rank %d: nil result alongside rank failure; want partial result", r)
		}
		if res.FailedRank < 0 || res.FailedRank >= p {
			t.Fatalf("rank %d: FailedRank = %d", r, res.FailedRank)
		}
		if len(res.Seeds) == 0 || len(res.Seeds) >= opt.K {
			t.Fatalf("rank %d: %d seeds; the crash missed the final selection", r, len(res.Seeds))
		}
		if !slices.Equal(res.Seeds, clean[r].Seeds[:len(res.Seeds)]) {
			t.Fatalf("rank %d: partial seeds %v are not a prefix of %v", r, res.Seeds, clean[r].Seeds)
		}
	}
	if !errors.Is(errs[victim], mpi.ErrInjectedCrash) {
		t.Errorf("victim's error %v does not carry ErrInjectedCrash", errs[victim])
	}
}

// sendLog is a Comm decorator recording the largest payload sent in each
// selection round (round -1 is Start).
type sendLog struct {
	mpi.Comm
	round   int
	largest map[int]int
}

func (s *sendLog) Send(dst, tag int, payload []byte) error {
	s.largest[s.round] = max(s.largest[s.round], len(payload))
	return s.Comm.Send(dst, tag, payload)
}

func TestPartitionedSelectionSendsOnlyWhatItTouches(t *testing.T) {
	// A purge moves the matched sample ids and the touched (vertex,
	// decrement) pairs, 8 bytes each, plus the all-gather's per-rank
	// lengths: no payload of a selection round may scale with n.
	const p, k, samples = 3, 12, 3000
	g := testGraph(29, 2000, 3000)
	n := g.NumVertices()
	for _, store := range []imm.StoreKind{imm.StoreFlat, imm.StoreCoded} {
		t.Run(store.String(), func(t *testing.T) {
			comms := mpi.NewLocalCluster(p)
			states := make([]*partState, p)
			logs := make([]*sendLog, p)
			sels := make([]*imm.QueryResult, p)
			errs := make([]error, p)
			var wg sync.WaitGroup
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					log := &sendLog{Comm: comms[rank], largest: map[int]int{}}
					st := &partState{c: log, part: carvePartition(g, rank, p), col: rrr.NewCollection(n),
						opt: PartOptions{Model: diffuse.IC, Seed: 3, Batch: 500, Threads: 1}}
					if _, errs[rank] = st.Extend(samples); errs[rank] != nil {
						return
					}
					col := st.col
					if store == imm.StoreCoded {
						st.col = nil
					}
					var idx *rrr.Index
					st.coded, idx = imm.FinalIndex(col, store, store == imm.StoreCoded, 1, &trace.Times{})
					log.round, log.largest = -1, map[int]int{}
					sels[rank], errs[rank] = imm.Greedy(&partCoverage{st: st, idx: idx}, n, imm.Query{K: k},
						func(i int, _ graph.Vertex, _ int64) { log.round = i })
					states[rank], logs[rank] = st, log
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}

			// Reassemble the samples from the shards and replay the purges.
			full := rrr.NewCollection(n)
			var buf []graph.Vertex
			for j := 0; j < samples; j++ {
				var set []graph.Vertex
				for _, st := range states {
					if st.coded != nil {
						buf = st.coded.AppendMembers(j, buf[:0])
						set = append(set, buf...)
					} else {
						set = append(set, st.col.Sample(j)...)
					}
				}
				slices.Sort(set)
				full.Append(set)
			}
			seeds, cov := imm.SelectSeedsScan(full, k, 1)
			for r, sel := range sels {
				if !slices.Equal(sel.Seeds, seeds) || sel.Covered != cov {
					t.Fatalf("rank %d: seeds %v covering %d, the scan oracle %v covering %d", r, sel.Seeds, sel.Covered, seeds, cov)
				}
			}
			covered := make([]bool, samples)
			for i, v := range seeds {
				touched := map[graph.Vertex]bool{}
				matched := 0
				for j := 0; j < samples; j++ {
					if covered[j] || !full.Contains(j, v) {
						continue
					}
					covered[j] = true
					matched++
					for _, u := range full.Sample(j) {
						touched[u] = true
					}
				}
				bound := 8*(matched+len(touched)) + 8*p
				if bound >= 8*n {
					t.Fatalf("round %d may send %d B: the graph is too small to tell a per-vertex payload apart", i, bound)
				}
				for r, log := range logs {
					if got := log.largest[i]; got > bound {
						t.Fatalf("rank %d round %d (seed %d): sent %d B, more than the %d B its %d matched samples and %d touched vertices need",
							r, i, v, got, bound, matched, len(touched))
					}
				}
			}
			if got, width := logs[1].largest[-1], int(states[1].part.hi-states[1].part.lo); got < 8*width {
				t.Fatalf("Start's largest send %d B is below the %d B of rank 1's interval: the log missed it", got, 8*width)
			}
		})
	}
}
