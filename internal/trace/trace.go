package trace

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// Phase identifies a section of Algorithm 1.
type Phase int

const (
	// Estimation is Algorithm 2 including the Sample calls it makes
	// internally (the paper: "the cost of the calls to Sample from within
	// the Estimation function are included as part of the Estimation
	// bars").
	Estimation Phase = iota
	// Sampling is the direct call to Algorithm 3 from the skeleton.
	Sampling
	// IndexBuild is the extension of the inverted vertex->samples
	// incidence index, the lookup structure the final SelectSeeds purges
	// through, over the samples the final draw added. (The estimation
	// loop's extensions are accounted to Estimation, like the Sample calls
	// made there; a pipeline that samples outside the loop builds the
	// whole index here.)
	IndexBuild
	// SelectSeeds is the final Algorithm 4 invocation.
	SelectSeeds
	// Other is everything else (setup, allocation, accounting).
	Other

	numPhases
)

// phaseNames is the single source of phase-name truth: Phase.String,
// Times.String, the metrics RunReport keys and the harness table headers
// all render from this table.
var phaseNames = [numPhases]string{
	Estimation:  "EstimateTheta",
	Sampling:    "Sample",
	IndexBuild:  "BuildIndex",
	SelectSeeds: "SelectSeeds",
	Other:       "Other",
}

// String returns the phase name as used in the paper's legends.
func (p Phase) String() string {
	if p >= 0 && p < numPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// allPhases returns every phase in legend order.
func allPhases() []Phase {
	return []Phase{Estimation, Sampling, IndexBuild, SelectSeeds, Other}
}

// Times records the wall-clock duration of each phase.
type Times struct {
	d [numPhases]time.Duration
}

// Add accumulates d into phase p.
func (t *Times) Add(p Phase, d time.Duration) { t.d[p] += d }

// Get returns the accumulated duration of phase p.
func (t *Times) Get(p Phase) time.Duration { return t.d[p] }

// Total returns the sum over all phases.
func (t *Times) Total() time.Duration {
	var s time.Duration
	for _, d := range t.d {
		s += d
	}
	return s
}

// Measure runs fn and accumulates its wall-clock time into phase p.
func (t *Times) Measure(p Phase, fn func()) {
	start := time.Now()
	fn()
	t.d[p] += time.Since(start)
}

// merge adds other's durations into t.
func (t *Times) merge(other Times) {
	for i := range t.d {
		t.d[i] += other.d[i]
	}
}

// String formats the breakdown in legend order.
func (t *Times) String() string {
	var b strings.Builder
	for i, p := range allPhases() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", p, t.d[p])
	}
	return b.String()
}

// Seconds returns the breakdown as a phase-name-keyed map of seconds, the
// form the metrics RunReport serializes.
func (t *Times) Seconds() map[string]float64 {
	m := make(map[string]float64, len(phaseNames))
	for _, p := range allPhases() {
		m[p.String()] = t.d[p].Seconds()
	}
	return m
}

// HeapAlloc returns the current live-heap size in bytes; a coarse stand-in
// for the Massif peak-memory instrumentation of Table 2 (the precise
// quantity compared there — the RRR store size — is accounted exactly by
// the rrr package's Bytes methods).
func HeapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
