package main

import (
	"math"
	"sort"
)

// A stat is one reported value with the spread behind it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// exact is a value that is a count or a single measurement.
func exact(v float64, unit string) stat { return stat{Value: v, Unit: unit, Q1: v, Q3: v, N: 1} }

// medianOf summarises xs by its median and quartiles.
func medianOf(xs []float64, unit string) stat {
	if len(xs) == 0 {
		return stat{Unit: unit}
	}
	q1, med, q3 := quartiles(xs)
	return stat{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

// quartiles follows Python's statistics.quantiles(xs, n=4), which is what
// the acceptance rule is written in; fewer than two values have no spread.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile is the nearest-rank percentile of sorted xs; pct 100 is the
// maximum.
func percentile(sorted []float64, pct float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(pct / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// blockStats cuts latencies (in completion order) into blocks of size
// block, takes the median and the tail percentile of each, and returns the
// per-block values. A trailing partial block is dropped unless it is the
// only one.
func blockStats(lat []float64, block int, tailPct float64) (p50s, tails []float64) {
	if block <= 0 || block > len(lat) {
		block = len(lat)
	}
	for lo := 0; lo+block <= len(lat) && block > 0; lo += block {
		b := append([]float64(nil), lat[lo:lo+block]...)
		sort.Float64s(b)
		p50s = append(p50s, percentile(b, 50))
		tails = append(tails, percentile(b, tailPct))
	}
	return p50s, tails
}
