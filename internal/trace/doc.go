// Package trace provides the phase instrumentation behind the paper's
// stacked-bar runtime figures: every IMM run is decomposed into the
// Estimation, Sample, SelectSeeds and Other phases of Algorithm 1
// (Figures 3-8), plus a coarse memory probe for Table 2.
//
// Mapping to the paper's Section 3 machinery:
//
//   - Phase enumerates the sections of Algorithm 1 exactly as the figure
//     legends name them: EstimateTheta is Algorithm 2 including the Sample
//     calls it makes internally ("the cost of the calls to Sample from
//     within the Estimation function are included as part of the
//     Estimation bars"), Sample is the direct Algorithm 3 invocation,
//     SelectSeeds is Algorithm 4, and Other is setup and accounting.
//   - Times accumulates wall-clock durations per phase; Measure wraps a
//     phase body the way the paper's implementations wrap their OpenMP
//     regions with timers. Each IMMdist rank reports its own breakdown;
//     internal/metrics gathers them rather than summing them.
//   - HeapAlloc is the coarse stand-in for the Massif peak-memory probe of
//     Table 2; the precise quantity compared there (the RRR store size) is
//     accounted exactly by the rrr package's Bytes methods.
//
// Phase.String and allPhases are the single source of phase-name truth:
// internal/metrics keys its RunReport phase map by Phase.String(), and the
// harness renders its table headers from the same names, so a figure
// legend, a JSON report and a markdown table can never disagree.
package trace
