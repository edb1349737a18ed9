package mpi

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// This file checks both collectives against a plain-Go model of their
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

// edgeVec is a model input at the int64 extremes: n elements counting
// down from math.MaxInt64 (top) or up from math.MinInt64 (bottom), offset by
// rank and index, so sums across two or more ranks wrap around.
func edgeVec(top bool) func(rank, n int) []int64 {
	return func(rank, n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			off := int64(rank*1000 + i)
			if top {
				v[i] = math.MaxInt64 - off
			} else {
				v[i] = math.MinInt64 + off
			}
		}
		return v
	}
}

func TestSemanticsBroadcast(t *testing.T) {
	for _, tp := range semanticsPlans {
		for _, p := range semanticsRanks {
			for _, n := range semanticsShapes {
				t.Run(fmt.Sprintf("%s/p%d/n%d", tp.name, p, n), func(t *testing.T) {
					// Model: the broadcast half of AllReduce alone leaves
					// rank 0's vector on every rank, whatever they held.
					want := rankVec(0, n)
					runSPMDPlan(t, p, tp.plan, func(c Comm) error {
						buf := rankVec(c.Rank(), n)
						if err := broadcast(c, buf); err != nil {
							return err
						}
						return expectVec(fmt.Sprintf("broadcast on rank %d", c.Rank()), buf, want)
					})
				})
			}
		}
	}
}

func TestSemanticsReduceAndAllReduce(t *testing.T) {
	// The sum runs over three input families: small values ("sum"), and
	// values at the top ("max") and bottom ("min") of int64, whose sums
	// wrap, so the 8-byte codec must carry every bit through the tree.
	inputs := []struct {
		name string
		vec  func(rank, n int) []int64
	}{{"sum", rankVec}, {"max", edgeVec(true)}, {"min", edgeVec(false)}}
	for _, tp := range semanticsPlans {
		for _, p := range semanticsRanks {
			for _, n := range semanticsShapes {
				for _, in := range inputs {
					// Model: elementwise (wrapping) sum of every rank's vector.
					want := make([]int64, n)
					for r := 0; r < p; r++ {
						for i, x := range in.vec(r, n) {
							want[i] += x
						}
					}
					t.Run(fmt.Sprintf("%s/p%d/n%d/%s", tp.name, p, n, in.name), func(t *testing.T) {
						runSPMDPlan(t, p, tp.plan, func(c Comm) error {
							// The reduce half alone lands the total at rank 0.
							buf := in.vec(c.Rank(), n)
							if err := reduce(c, buf); err != nil {
								return err
							}
							if c.Rank() == 0 {
								if err := expectVec("reduce at rank 0", buf, want); err != nil {
									return err
								}
							}
							buf = in.vec(c.Rank(), n)
							if err := AllReduce(c, buf); err != nil {
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
					out, err := GatherBytes(c, payload(c.Rank()))
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
