package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file checks every collective against a plain-Go model of its
// semantics, table-driven over payload shapes (including zero-length) and
// rank counts (including non-powers-of-two), on the clean in-process
// transport and again under a fault plan that delays, drops, duplicates
// and reorders — the injector must be invisible to the collectives.

// semanticsPlans names the transports the semantics tests run over: the
// bare local transport and the same transport under heavy injected chaos.
var semanticsPlans = []struct {
	name string
	plan FaultPlan
}{
	{"clean", FaultPlan{}},
	{"chaos", FaultPlan{
		Seed:      99,
		DelayProb: 0.05, MaxDelay: 300 * time.Microsecond,
		DropProb: 0.2, MaxRedeliver: 2,
		DupProb:     0.2,
		ReorderProb: 0.2,
	}},
}

// semanticsRanks covers the degenerate single rank, powers of two, and
// non-powers-of-two (the binomial trees' irregular shapes).
var semanticsRanks = []int{1, 2, 3, 5, 6}

// semanticsShapes are element counts per rank, including empty payloads.
var semanticsShapes = []int{0, 1, 7, 33}

// runSPMDPlan executes body on every rank of a fresh local cluster, each
// endpoint decorated with the fault plan. Each endpoint is closed when its
// rank's body returns — Close releases any reorder-held envelope, the same
// obligation real callers have.
func runSPMDPlan(t *testing.T, p int, plan FaultPlan, body func(c Comm) error) {
	t.Helper()
	comms := NewLocalCluster(p)
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := WithFaults(comms[rank], plan)
			errs[rank] = body(c)
			c.Close()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// rankVec is the deterministic model input of one rank: n elements that
// encode (rank, index) so misrouted or reordered data is detectable.
func rankVec(rank, n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(rank*1000 + i + 1)
	}
	return v
}

func TestSemanticsBarrier(t *testing.T) {
	for _, tp := range semanticsPlans {
		for _, p := range semanticsRanks {
			t.Run(fmt.Sprintf("%s/p%d", tp.name, p), func(t *testing.T) {
				// Model: once Barrier returns anywhere, every rank must have
				// entered it.
				var entered atomic.Int64
				runSPMDPlan(t, p, tp.plan, func(c Comm) error {
					entered.Add(1)
					if err := Barrier(c); err != nil {
						return err
					}
					if got := entered.Load(); got != int64(p) {
						return fmt.Errorf("barrier released with %d/%d ranks entered", got, p)
					}
					return nil
				})
			})
		}
	}
}

func TestSemanticsBroadcast(t *testing.T) {
	for _, tp := range semanticsPlans {
		for _, p := range semanticsRanks {
			for _, n := range semanticsShapes {
				root := p - 1 // non-zero root exercises the rank rotation
				t.Run(fmt.Sprintf("%s/p%d/n%d", tp.name, p, n), func(t *testing.T) {
					want := rankVec(root, n)
					runSPMDPlan(t, p, tp.plan, func(c Comm) error {
						var data []int64
						if c.Rank() == root {
							data = rankVec(root, n)
						}
						out, err := Broadcast(c, root, data)
						if err != nil {
							return err
						}
						return expectVec(fmt.Sprintf("broadcast on rank %d", c.Rank()), out, want)
					})
				})
			}
		}
	}
}

func TestSemanticsReduceAndAllReduce(t *testing.T) {
	ops := []struct {
		name string
		op   Op
	}{{"sum", Sum}, {"max", Max}, {"min", Min}}
	for _, tp := range semanticsPlans {
		for _, p := range semanticsRanks {
			for _, n := range semanticsShapes {
				for _, o := range ops {
					// Model: elementwise fold of every rank's vector.
					want := rankVec(0, n)
					for r := 1; r < p; r++ {
						combine(want, rankVec(r, n), o.op)
					}
					root := p / 2
					t.Run(fmt.Sprintf("%s/p%d/n%d/%s", tp.name, p, n, o.name), func(t *testing.T) {
						runSPMDPlan(t, p, tp.plan, func(c Comm) error {
							out, err := Reduce(c, root, rankVec(c.Rank(), n), o.op)
							if err != nil {
								return err
							}
							if c.Rank() == root {
								if err := expectVec("reduce at root", out, want); err != nil {
									return err
								}
							} else if out != nil {
								return fmt.Errorf("reduce gave non-root rank %d data", c.Rank())
							}
							buf := rankVec(c.Rank(), n)
							if err := AllReduce(c, buf, o.op); err != nil {
								return err
							}
							return expectVec(fmt.Sprintf("allreduce on rank %d", c.Rank()), buf, want)
						})
					})
				}
			}
		}
	}
}

func TestSemanticsGatherAndAllGather(t *testing.T) {
	for _, tp := range semanticsPlans {
		for _, p := range semanticsRanks {
			t.Run(fmt.Sprintf("%s/p%d", tp.name, p), func(t *testing.T) {
				// Variable lengths per rank; rank 0 contributes nothing, so
				// the zero-length case rides along at every rank count.
				length := func(rank int) int { return (rank * 5) % 11 }
				root := p - 1
				runSPMDPlan(t, p, tp.plan, func(c Comm) error {
					mine := rankVec(c.Rank(), length(c.Rank()))
					out, err := Gather(c, root, mine)
					if err != nil {
						return err
					}
					if c.Rank() == root {
						for r := 0; r < p; r++ {
							if err := expectVec(fmt.Sprintf("gathered[%d]", r), out[r], rankVec(r, length(r))); err != nil {
								return err
							}
						}
					} else if out != nil {
						return fmt.Errorf("gather gave non-root rank %d data", c.Rank())
					}
					all, err := AllGather(c, mine)
					if err != nil {
						return err
					}
					for r := 0; r < p; r++ {
						if err := expectVec(fmt.Sprintf("allgather[%d] on rank %d", r, c.Rank()), all[r], rankVec(r, length(r))); err != nil {
							return err
						}
					}
					return nil
				})
			})
		}
	}
}

func TestSemanticsGatherBytes(t *testing.T) {
	for _, tp := range semanticsPlans {
		for _, p := range semanticsRanks {
			t.Run(fmt.Sprintf("%s/p%d", tp.name, p), func(t *testing.T) {
				payload := func(rank int) []byte {
					if rank%2 == 0 {
						return nil // zero-length contributions interleave
					}
					return []byte(fmt.Sprintf("payload-from-%d", rank))
				}
				runSPMDPlan(t, p, tp.plan, func(c Comm) error {
					out, err := GatherBytes(c, 0, payload(c.Rank()))
					if err != nil {
						return err
					}
					if c.Rank() != 0 {
						if out != nil {
							return fmt.Errorf("non-root rank %d got data", c.Rank())
						}
						return nil
					}
					for r := 0; r < p; r++ {
						if string(out[r]) != string(payload(r)) {
							return fmt.Errorf("gathered[%d] = %q, want %q", r, out[r], payload(r))
						}
					}
					return nil
				})
			})
		}
	}
}

// expectVec compares a collective's output against the model's.
func expectVec(what string, got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}
