package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// exactCounts are the per-layer metrics that are pure functions of the
// seed: two sets of the same code must agree on them to the last digit.
// (imm.frontier_passes is not one: how the dynamic schedule cuts the
// samples into fused batches decides how many passes they take.)
var exactCounts = []string{
	"graph.vertices", "graph.edges", "imm.theta", "imm.samples_generated", "imm.coins_generated",
	"rrr.store_bytes", "cluster.rounds_per_query",
	"imm.delta_candidates_per_batch", "imm.delta_invalidated_per_batch",
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return f, fmt.Errorf("%s holds no set", path)
	}
	return f, nil
}

// runCompare prints, for every end-to-end metric on every workload, both
// sides' medians and quartiles, the relative difference, the bound and a
// verdict. One file compares its first set with its second; two files
// compare all of a's sets with all of b's. It returns 1 when a row
// regressed or an exact count differs.
func runCompare(paths []string, w io.Writer) (int, error) {
	var a, b []resultSet
	switch len(paths) {
	case 1:
		f, err := readResultFile(paths[0])
		if err != nil {
			return 1, err
		}
		if len(f.Sets) < 2 {
			return 1, fmt.Errorf("%s holds one set; comparing needs two (-repeat 2)", paths[0])
		}
		a, b = f.Sets[:1], f.Sets[1:2]
	case 2:
		fa, err := readResultFile(paths[0])
		if err != nil {
			return 1, err
		}
		fb, err := readResultFile(paths[1])
		if err != nil {
			return 1, err
		}
		a, b = fa.Sets, fb.Sets
	default:
		return 1, fmt.Errorf("-compare takes one or two result files, got %d", len(paths))
	}

	code := 0
	fmt.Fprintf(w, "%-13s %-15s %-5s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "unit", "a median", "a q1..q3", "b median", "b q1..q3", "worse", "bound", "verdict")
	for _, sp := range workloads {
		for _, d := range endToEnd {
			sa, sb := across(a, sp.name, d.Name, false), across(b, sp.name, d.Name, false)
			worse := (sb.Value - sa.Value) / sa.Value
			if d.Better == "higher" {
				worse = -worse
			}
			spread := math.Max(relSpread(sa), relSpread(sb))
			verdict := "ok"
			switch {
			case math.IsNaN(worse) || math.IsInf(worse, 0):
				verdict, code = "regressed", 1
			case spread > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict, code = "regressed", 1
			}
			fmt.Fprintf(w, "%-13s %-15s %-5s %12.5g %12.5g..%-11.5g %12.5g %12.5g..%-11.5g %+7.1f%% %5.0f%%  %s\n",
				sp.name, d.Name, d.Unit, sa.Value, sa.Q1, sa.Q3, sb.Value, sb.Q1, sb.Q3, 100*worse, 100*d.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "\nexact counts\n")
	for _, sp := range workloads {
		for _, name := range exactCounts {
			sa, sb := across(a, sp.name, name, true), across(b, sp.name, name, true)
			verdict := "identical"
			if sa.Value != sb.Value || sa.Q1 != sa.Q3 || sb.Q1 != sb.Q3 {
				verdict, code = "DIFFERS", 1
			}
			fmt.Fprintf(w, "%-13s %-34s %18.17g %18.17g  %s\n", sp.name, name, sa.Value, sb.Value, verdict)
		}
	}
	return code, nil
}

// across summarises one metric of one workload over sets. A single set has
// no spread between sets; its own quartiles, which describe the n values the
// run took its median of, stand in (see relSpread).
func across(sets []resultSet, workload, metric string, layer bool) stat {
	var xs []float64
	var last stat
	for _, rs := range sets {
		m := rs[workload].EndToEnd
		if layer {
			m = rs[workload].PerLayer
		}
		last = m[metric]
		xs = append(xs, last.Value)
	}
	if len(xs) == 1 {
		return last
	}
	s := medianOf(xs, last.Unit)
	s.N = 0 // the quartiles are between sets: they are the spread itself
	return s
}

// relSpread is how far the value may be off, as a share of it. Between
// sets that is the distance between their quartiles. Inside one run the
// quartiles are those of the n values behind the median, and a median of n
// values wanders about 1/sqrt(n) as far as they do.
func relSpread(s stat) float64 {
	if s.Value == 0 {
		return 0
	}
	spread := math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
	if s.N > 1 {
		spread /= math.Sqrt(float64(s.N))
	}
	return spread
}
