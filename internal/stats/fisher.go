package stats

import (
	"math"
	"sort"
)

// hypergeomPMF returns the probability of drawing exactly k successes in a
// sample of size n from a population of size N containing K successes.
func hypergeomPMF(N, K, n, k int64) float64 {
	lp := LogBinomial(K, k) + LogBinomial(N-K, n-k) - LogBinomial(N, n)
	if math.IsInf(lp, -1) {
		return 0
	}
	return math.Exp(lp)
}

// FisherExactGreater returns the one-sided p-value of Fisher's exact test
// for over-representation (enrichment): the probability of observing k or
// more successes in a sample of size n drawn without replacement from a
// population of size N containing K successes. This is the test Section 5
// applies to pathway membership of the IMM seed set.
func FisherExactGreater(N, K, n, k int64) float64 {
	if N < 0 || K < 0 || n < 0 || k < 0 || K > N || n > N {
		panic("stats: invalid Fisher contingency parameters")
	}
	hi := n
	if K < hi {
		hi = K
	}
	if k > hi {
		return 0
	}
	p := 0.0
	for i := k; i <= hi; i++ {
		p += hypergeomPMF(N, K, n, i)
	}
	if p > 1 {
		p = 1
	}
	return p
}

// BenjaminiHochberg returns the BH-adjusted p-values (false discovery rate
// control) of pvals, preserving input order.
func BenjaminiHochberg(pvals []float64) []float64 {
	m := len(pvals)
	adj := make([]float64, m)
	if m == 0 {
		return adj
	}
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return pvals[idx[a]] < pvals[idx[b]] })
	// adjusted p_(i) = min_{j >= i} ( m * p_(j) / j ), capped at 1.
	running := 1.0
	for r := m - 1; r >= 0; r-- {
		i := idx[r]
		v := pvals[i] * float64(m) / float64(r+1)
		if v < running {
			running = v
		}
		adj[i] = running
	}
	return adj
}
