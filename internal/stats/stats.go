// Package stats provides the mathematical and statistical helpers used
// across the reproduction: log-binomial coefficients (the theta-estimation
// formulas of IMM), rank-biased overlap (the metric the paper uses to
// validate IMM vs IMMopt seed sets), Fisher's exact test and
// Benjamini-Hochberg adjustment (the Section 5 enrichment analysis).
package stats

import "math"

// LogBinomial returns ln(n choose k). It is exact up to floating point via
// the log-gamma function. Out-of-range k yields -Inf (an impossible event).
func LogBinomial(n, k int64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk1, _ := math.Lgamma(float64(k + 1))
	lnk1, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk1 - lnk1
}
