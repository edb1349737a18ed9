package imm

import (
	"math"

	"influmax/internal/stats"
)

// Analysis bundles the closed-form quantities of Tang et al.'s analysis
// (the f and f' referred to by Algorithm 2's comments in the paper). It is
// exported so the distributed implementation shares exactly the same
// estimation schedule.
type Analysis struct {
	n        float64
	k        int
	eps      float64
	epsPrime float64 // eps' = sqrt(2) * eps, used in the lower-bound search
	l        float64
	logNK    float64 // ln(n choose k)
	lnN      float64
	lambdaP  float64 // lambda' of Tang et al. eq. (9)
	lambdaS  float64 // lambda* of Tang et al. eq. (6)
	maxX     int     // number of lower-bound search iterations
}

// NewAnalysis precomputes the estimation constants for a graph of n
// vertices, seed count k, accuracy eps and confidence exponent l.
func NewAnalysis(n int, k int, eps, l float64) Analysis {
	m := Analysis{
		n:        float64(n),
		k:        k,
		eps:      eps,
		epsPrime: math.Sqrt2 * eps,
		l:        l,
	}
	// Tang et al. inflate the confidence so the union bound also covers
	// the log2(n) estimation iterations; the equivalent formulation adds
	// ln(log2 n) inside lambda', which is what the paper's Algorithm 2
	// references.
	m.lnN = math.Log(m.n)
	m.logNK = stats.LogBinomial(int64(n), int64(k))
	m.maxX = int(math.Max(1, math.Floor(math.Log2(m.n))-1))

	// Every product that meets an addition is wrapped in float64(...): an
	// explicit conversion rounds, so no platform may fuse it into an FMA,
	// and theta is the same on every GOARCH (TestNoFusedMultiplyAdd).
	e := m.epsPrime
	lnNL := float64(m.l * m.lnN)
	m.lambdaP = (2 + float64(2.0/3.0*e)) * (m.logNK + lnNL + math.Log(math.Log2(m.n))) * m.n / (e * e)

	alpha := math.Sqrt(lnNL + math.Ln2)
	oneMinusInvE := 1 - 1/math.E
	beta := math.Sqrt(oneMinusInvE * (m.logNK + lnNL + math.Ln2))
	ab := float64(oneMinusInvE*alpha) + beta
	m.lambdaS = 2 * m.n * ab * ab / (eps * eps)
	return m
}

// N returns the vertex count as a float.
func (m Analysis) N() float64 { return m.n }

// MaxX returns the number of lower-bound search iterations (Algorithm 2's
// loop bound, log2(n)-1).
func (m Analysis) MaxX() int { return m.maxX }

// ThetaAt returns the number of samples required by lower-bound search
// iteration x (Algorithm 2's f(x, k, eps, |V|)): lambda' / (n / 2^x).
func (m Analysis) ThetaAt(x int) int64 {
	y := m.n / math.Pow(2, float64(x))
	return int64(math.Ceil(m.lambdaP / y))
}

// ThresholdAt returns the acceptance threshold on n*F for iteration x: the
// lower-bound search stops when n*F(S) >= (1 + eps') * n / 2^x.
func (m Analysis) ThresholdAt(x int) float64 {
	return (1 + m.epsPrime) * m.n / math.Pow(2, float64(x))
}

// LowerBound converts an accepted coverage estimate n*F into the
// martingale lower bound on OPT: LB = n*F / (1 + eps').
func (m Analysis) LowerBound(nF float64) float64 {
	return nF / (1 + m.epsPrime)
}

// FinalTheta returns theta = lambda* / LB (Algorithm 2's
// f'(k, eps, |V|, LB)).
func (m Analysis) FinalTheta(lb float64) int64 {
	if lb < 1 {
		lb = 1
	}
	return int64(math.Ceil(m.lambdaS / lb))
}
