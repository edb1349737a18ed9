package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestLCGDeterminism(t *testing.T) {
	a, b := NewLCG(42), NewLCG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestLCGSeedSensitivity(t *testing.T) {
	a, b := NewLCG(1), NewLCG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds collided %d times in 1000 draws", same)
	}
}

func TestAffinePowIdentity(t *testing.T) {
	an, cn := affinePow(lcgMult, lcgInc, 0)
	if an != 1 || cn != 0 {
		t.Fatalf("affinePow(_, _, 0) = (%d, %d), want identity (1, 0)", an, cn)
	}
}

func TestAffinePowMatchesIteration(t *testing.T) {
	check := func(n uint8, x uint64) bool {
		an, cn := affinePow(lcgMult, lcgInc, uint64(n))
		got := an*x + cn
		want := x
		for i := uint8(0); i < n; i++ {
			want = lcgMult*want + lcgInc
		}
		return got == want
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJumpEqualsSteps(t *testing.T) {
	check := func(seed uint64, n uint16) bool {
		g1, g2 := NewLCG(seed), NewLCG(seed)
		g1.jump(uint64(n))
		for i := uint16(0); i < n; i++ {
			g2.Uint64()
		}
		return g1.state == g2.state
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// The defining property of the Leap Frog split: interleaving the outputs of
// the p substreams reconstructs the base sequence exactly.
func TestLeapFrogInterleaving(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 16} {
		base := NewLCG(987654321)
		var want []uint64
		for i := 0; i < 10*p; i++ {
			want = append(want, base.Uint64())
		}
		fresh := NewLCG(987654321)
		subs := make([]*LCG, p)
		for r := 0; r < p; r++ {
			subs[r] = fresh.LeapFrog(r, p)
		}
		for i, w := range want {
			got := subs[i%p].Uint64()
			if got != w {
				t.Fatalf("p=%d: interleaved element %d = %d, want %d", p, i, got, w)
			}
		}
	}
}

func TestLeapFrogDoesNotAdvanceBase(t *testing.T) {
	g := NewLCG(7)
	before := g.state
	g.LeapFrog(0, 4)
	if g.state != before {
		t.Fatal("LeapFrog advanced the base generator")
	}
}

func TestLeapFrogPanicsOnBadArgs(t *testing.T) {
	for _, tc := range [][2]int{{-1, 4}, {4, 4}, {0, 0}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LeapFrog(%d, %d) did not panic", tc[0], tc[1])
				}
			}()
			NewLCG(1).LeapFrog(tc[0], tc[1])
		}()
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity on a dense set of small inputs plus random ones.
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		v := Mix64(i)
		if prev, dup := seen[v]; dup {
			t.Fatalf("Mix64 collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[v] = i
	}
}

func TestDeriveIndependence(t *testing.T) {
	// Streams derived for adjacent indices must not be shifted copies of
	// each other.
	a, b := Derive(5, 0), Derive(5, 1)
	av, bv := make([]uint64, 64), make([]uint64, 64)
	for i := range av {
		av[i], bv[i] = a.Uint64(), b.Uint64()
	}
	for shift := 0; shift < 32; shift++ {
		matches := 0
		for i := 0; i+shift < 64; i++ {
			if av[i+shift] == bv[i] {
				matches++
			}
		}
		if matches > 1 {
			t.Fatalf("derived streams overlap at shift %d (%d matches)", shift, matches)
		}
	}
}

func TestDeriveDeterminism(t *testing.T) {
	check := func(seed, idx uint64) bool {
		return Derive(seed, idx).Uint64() == Derive(seed, idx).Uint64()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func testUniformity(t *testing.T, name string, src Source) {
	t.Helper()
	const buckets, draws = 64, 64 * 4096
	r := New(src)
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[int(r.Float64()*buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 63 degrees of freedom: mean 63, stddev ~11.2. Beyond 140 is a
	// catastrophic generator failure rather than statistical noise.
	if chi2 > 140 {
		t.Errorf("%s: chi2 = %.1f over %d buckets, generator grossly non-uniform", name, chi2, buckets)
	}
}

func TestUniformityLCG(t *testing.T)      { testUniformity(t, "LCG", NewLCG(1)) }
func TestUniformitySplitMix(t *testing.T) { testUniformity(t, "SplitMix64", NewSplitMix64(1)) }

func TestFloat64Range(t *testing.T) {
	check := func(seed uint64) bool {
		v := New(NewLCG(seed)).Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat32Range(t *testing.T) {
	r := New(NewSplitMix64(3))
	for i := 0; i < 10000; i++ {
		v := r.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of range: %v", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(NewSplitMix64(9))
	for _, n := range []int{1, 2, 3, 10, 1000000} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnCoversAllValues(t *testing.T) {
	r := New(NewLCG(11))
	seen := make([]bool, 7)
	for i := 0; i < 10000; i++ {
		seen[r.Intn(7)] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("Intn(7) never produced %d in 10000 draws", v)
		}
	}
}

func TestUint32nBounds(t *testing.T) {
	r := New(NewLCG(13))
	for i := 0; i < 10000; i++ {
		if v := r.uint32n(17); v >= 17 {
			t.Fatalf("uint32n(17) = %d", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		p := New(NewLCG(seed)).Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == int(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(NewSplitMix64(17))
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func BenchmarkLCG(b *testing.B) {
	g := NewLCG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += g.Uint64()
	}
	_ = sink
}

func BenchmarkSplitMix64(b *testing.B) {
	g := NewSplitMix64(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += g.Uint64()
	}
	_ = sink
}

func BenchmarkLeapFrogSplit(b *testing.B) {
	g := NewLCG(1)
	for i := 0; i < b.N; i++ {
		_ = g.LeapFrog(i%16, 16)
	}
}

func TestReseedMatchesDerive(t *testing.T) {
	g := NewSplitMix64(0)
	for _, tc := range []struct{ seed, index uint64 }{
		{0, 0}, {1, 0}, {0, 1}, {42, 1 << 40}, {^uint64(0), 12345},
	} {
		g.Reseed(tc.seed, tc.index)
		fresh := Derive(tc.seed, tc.index)
		for i := 0; i < 8; i++ {
			if a, b := g.Uint64(), fresh.Uint64(); a != b {
				t.Fatalf("seed=%d index=%d step %d: Reseed stream %x != Derive stream %x",
					tc.seed, tc.index, i, a, b)
			}
		}
	}
}

// TestSplitMixStateMatchesReseed pins the inline-kernel state derivation:
// advancing the raw SplitMixState by the Weyl constant and finalizing must
// reproduce the Derive/Reseed stream value for value.
func TestSplitMixStateMatchesReseed(t *testing.T) {
	for _, tc := range []struct{ seed, index uint64 }{
		{0, 0}, {1, 0}, {0, 1}, {7, 1000}, {42, 1 << 40}, {^uint64(0), 12345},
	} {
		want := Derive(tc.seed, tc.index)
		st := SplitMixState(tc.seed, tc.index)
		for i := 0; i < 16; i++ {
			st += SplitMixGamma
			if got, w := Mix64(st), want.Uint64(); got != w {
				t.Fatalf("seed=%d index=%d step %d: inline state stream %x != Derive stream %x",
					tc.seed, tc.index, i, got, w)
			}
		}
	}
}

// TestMix64Hi24MatchesMix64 pins the compare-only finalizer shortcut: the
// top 24 bits it returns must equal the finalized Mix64 output's for every
// input (the skipped xor-shift only alters bits 0..32, which an exhaustive
// check over structured and pseudorandom inputs confirms).
func TestMix64Hi24MatchesMix64(t *testing.T) {
	check := func(z uint64) {
		if got, want := Mix64Hi24(z), uint32(Mix64(z)>>40); got != want {
			t.Fatalf("Mix64Hi24(%#x) = %#x, want %#x", z, got, want)
		}
	}
	for _, z := range []uint64{0, 1, ^uint64(0), 1 << 31, 1 << 32, 1 << 63, SplitMixGamma} {
		check(z)
	}
	g := NewSplitMix64(99)
	for i := 0; i < 1_000_000; i++ {
		check(g.Uint64())
	}
}

// jump advances the generator by n steps in O(log n) time.
func (g *LCG) jump(n uint64) {
	an, cn := affinePow(g.a, g.c, n)
	g.state = an*g.state + cn
}

// uint32n returns a uniform value in [0, n) using Lemire's multiply-shift
// method (no modulo bias worth worrying about at 64->32 bits).
func (r *Rand) uint32n(n uint32) uint32 {
	if n == 0 {
		panic("rng: uint32n(0)")
	}
	hi, _ := bits.Mul64(r.Src.Uint64(), uint64(n))
	return uint32(hi)
}
