package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

func TestLogBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int64
		want float64
	}{
		{5, 2, math.Log(10)},
		{10, 0, 0},
		{10, 10, 0},
		{52, 5, math.Log(2598960)},
		{1, 1, 0},
	}
	for _, c := range cases {
		approx(t, "LogBinomial", LogBinomial(c.n, c.k), c.want, 1e-9)
	}
}

func TestLogBinomialOutOfRange(t *testing.T) {
	if !math.IsInf(LogBinomial(5, 6), -1) || !math.IsInf(LogBinomial(5, -1), -1) {
		t.Fatal("out-of-range k should be -Inf")
	}
}

func TestLogBinomialSymmetry(t *testing.T) {
	check := func(n uint16, k uint16) bool {
		nn := int64(n%1000) + 1
		kk := int64(k) % (nn + 1)
		return math.Abs(LogBinomial(nn, kk)-LogBinomial(nn, nn-kk)) < 1e-7
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogBinomialPascal(t *testing.T) {
	// C(n,k) = C(n-1,k-1) + C(n-1,k) in log space for moderate n.
	for n := int64(2); n < 60; n++ {
		for k := int64(1); k < n; k++ {
			lhs := math.Exp(LogBinomial(n, k))
			rhs := math.Exp(LogBinomial(n-1, k-1)) + math.Exp(LogBinomial(n-1, k))
			if math.Abs(lhs-rhs)/rhs > 1e-9 {
				t.Fatalf("Pascal identity fails at (%d, %d)", n, k)
			}
		}
	}
}

func TestRBOIdentical(t *testing.T) {
	a := []uint32{1, 2, 3, 4, 5}
	approx(t, "RBO(identical)", RBO(a, a, 0.9), 1, 1e-12)
}

func TestRBODisjoint(t *testing.T) {
	a := []uint32{1, 2, 3}
	b := []uint32{4, 5, 6}
	approx(t, "RBO(disjoint)", RBO(a, b, 0.9), 0, 1e-12)
}

func TestRBOSymmetric(t *testing.T) {
	a := []uint32{1, 2, 3, 4}
	b := []uint32{2, 1, 5, 3, 9}
	approx(t, "RBO symmetry", RBO(a, b, 0.8)-RBO(b, a, 0.8), 0, 1e-12)
}

func TestRBORange(t *testing.T) {
	check := func(seed uint64) bool {
		// Build two random permutations of a small universe.
		a := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
		b := append([]uint32(nil), a...)
		x := seed
		for i := len(b) - 1; i > 0; i-- {
			x = x*6364136223846793005 + 1442695040888963407
			j := int(x % uint64(i+1))
			b[i], b[j] = b[j], b[i]
		}
		v := RBO(a, b, 0.9)
		return v >= 0 && v <= 1+1e-12
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRBOTopWeighted(t *testing.T) {
	// Agreement at the top must score higher than agreement at the bottom.
	ref := []uint32{1, 2, 3, 4, 5, 6}
	topAgree := []uint32{1, 2, 3, 9, 8, 7}
	botAgree := []uint32{9, 8, 7, 4, 5, 6}
	if RBO(ref, topAgree, 0.9) <= RBO(ref, botAgree, 0.9) {
		t.Fatal("RBO does not weight the top of the ranking")
	}
}

func TestRBOPanics(t *testing.T) {
	for _, f := range []func(){
		func() { RBO([]uint32{1}, []uint32{1}, 0) },
		func() { RBO([]uint32{1}, []uint32{1}, 1) },
		func() { RBO([]uint32{1, 1}, []uint32{1, 2}, 0.9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHypergeomPMFSumsToOne(t *testing.T) {
	N, K, n := int64(30), int64(12), int64(9)
	sum := 0.0
	for k := int64(0); k <= n; k++ {
		sum += hypergeomPMF(N, K, n, k)
	}
	approx(t, "hypergeom total mass", sum, 1, 1e-9)
}

func TestFisherExactKnownValue(t *testing.T) {
	// Classic 2x2 table: population 24, 8 successes, sample 8.
	// P(X >= 5) with N=24, K=8, n=8.
	want := 0.0
	for k := int64(5); k <= 8; k++ {
		want += hypergeomPMF(24, 8, 8, k)
	}
	approx(t, "Fisher", FisherExactGreater(24, 8, 8, 5), want, 1e-12)
	// Sanity: must be small (observing 5+ of 8 successes in a sample of 8
	// when only a third of the population are successes).
	if p := FisherExactGreater(24, 8, 8, 5); p > 0.05 {
		t.Fatalf("enrichment p-value suspiciously large: %v", p)
	}
}

func TestFisherExactEdge(t *testing.T) {
	approx(t, "k=0", FisherExactGreater(10, 5, 4, 0), 1, 1e-12)
	if p := FisherExactGreater(10, 5, 4, 5); p != 0 {
		t.Fatalf("impossible k should give 0, got %v", p)
	}
}

func TestFisherMonotoneInK(t *testing.T) {
	prev := 1.1
	for k := int64(0); k <= 8; k++ {
		p := FisherExactGreater(100, 20, 8, k)
		if p > prev+1e-12 {
			t.Fatalf("p-value not monotone decreasing in k at %d", k)
		}
		prev = p
	}
}

func TestBenjaminiHochberg(t *testing.T) {
	ps := []float64{0.01, 0.04, 0.03, 0.005}
	adj := BenjaminiHochberg(ps)
	// Sorted p: .005, .01, .03, .04 -> raw adj: .02, .02, .04, .04; after
	// the monotone pass (from the largest down): .02, .02, .04, .04.
	want := []float64{0.02, 0.04, 0.04, 0.02}
	for i := range ps {
		approx(t, "BH", adj[i], want[i], 1e-12)
	}
}

func TestBenjaminiHochbergProperties(t *testing.T) {
	check := func(raw []float64) bool {
		ps := make([]float64, 0, len(raw))
		for _, v := range raw {
			v = math.Abs(v)
			v -= math.Floor(v) // into [0,1)
			ps = append(ps, v)
		}
		adj := BenjaminiHochberg(ps)
		for i := range adj {
			if adj[i] < ps[i]-1e-12 || adj[i] > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBenjaminiHochbergEmpty(t *testing.T) {
	if len(BenjaminiHochberg(nil)) != 0 {
		t.Fatal("BH(nil) not empty")
	}
}
