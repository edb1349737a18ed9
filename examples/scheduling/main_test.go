package main

import "os"

// Example pins the demonstration's output: per-sample RNG makes the two
// worker counts bit-equivalent, so the seeds and theta printed are exact;
// the scheduler's own counters (chunks, steals) are timing-dependent and
// only asserted as predicates.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// workers=1: theta 999, seeds [492 545 483 531 487]
	// workers=4: theta 999, seeds [492 545 483 531 487]
	// seed sets identical: true
	// same samples generated: true
	// scheduler chunks claimed: true
	// balance gauge in (0, 1000]: true
}
