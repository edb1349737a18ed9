// Scheduling: the work-stealing sampling loop at one worker and at four —
// same answer, with the load spread across the workers.
//
//	go run ./examples/scheduling
//
// In the default per-sample RNG mode the RRR sampling loop runs on a
// chunked work-stealing scheduler (DESIGN.md §12). Because the per-sample
// discipline derives sample i's randomness from (seed, i) alone, which
// worker executes an index is invisible to the result: four workers
// produce the exact collection, theta, and seed set of one worker. What
// changes is load: the scheduler reports per-worker work whose mean/max
// ratio (the rrr/balance gauge, in permille) bounds sampling-phase
// speedup.
package main

import (
	"fmt"
	"io"
	"os"
	"slices"

	"influmax"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes the two worker counts and writes the demonstration output
// to w (the Example test pins this output).
func run(w io.Writer) error {
	// A deterministic scaled analog of the cit-HepTh citation network.
	g := influmax.Generate("cit-HepTh", 0.02, 3)
	g.AssignUniform(11)

	// Reference: one worker, so nothing is split or stolen.
	single, err := influmax.Maximize(g, influmax.Options{
		K: 5, Epsilon: 0.5, Model: influmax.IC, Workers: 1, Seed: 42,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workers=1: theta %d, seeds %v\n", single.Theta, single.Seeds)

	// Four workers stealing chunks from each other, instrumented.
	reg := influmax.NewMetricsRegistry()
	multi, err := influmax.Maximize(g, influmax.Options{
		K: 5, Epsilon: 0.5, Model: influmax.IC, Workers: 4, Seed: 42, Metrics: reg,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workers=4: theta %d, seeds %v\n", multi.Theta, multi.Seeds)

	// The worker count cannot change the answer — only who did the work.
	fmt.Fprintf(w, "seed sets identical: %v\n", slices.Equal(single.Seeds, multi.Seeds))
	fmt.Fprintf(w, "same samples generated: %v\n",
		single.SamplesGenerated == multi.SamplesGenerated)

	// The scheduler's telemetry: chunks claimed across the run, and the
	// load balance (mean/max per-worker work, in permille; 1000 = even).
	// Chunk and steal counts depend on thread timing, so only their
	// presence is stable enough to print.
	chunks := reg.Counter("par/chunks").Value()
	balance := reg.Gauge("rrr/balance").Value()
	fmt.Fprintf(w, "scheduler chunks claimed: %v\n", chunks >= 4)
	fmt.Fprintf(w, "balance gauge in (0, 1000]: %v\n", balance > 0 && balance <= 1000)
	return nil
}
