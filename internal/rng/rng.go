// Package rng provides pseudorandom number generation for large-scale
// parallel Monte Carlo sampling.
//
// The package mirrors the random-number discipline of the CLUSTER'19 paper:
// a single global linear congruential sequence is split among p ranks with
// the Leap Frog method (rank i of p consumes elements i, i+p, i+2p, ... of
// the sequence), so that the union of all numbers consumed by all ranks is
// one well-defined stream regardless of p. Jump-ahead is O(log n) by
// exponentiating the affine transition map.
//
// SplitMix64 is provided beside it, together with a per-sample derivation
// scheme that makes every Monte Carlo sample's randomness independent of
// how samples are scheduled onto workers.
package rng

import (
	"math"
	"math/bits"
)

// Source is a stream of pseudorandom 64-bit values.
type Source interface {
	// Uint64 returns the next pseudorandom value and advances the stream.
	Uint64() uint64
}

// Constants of the 64-bit LCG (Knuth's MMIX multiplier/increment).
const (
	lcgMult uint64 = 6364136223846793005
	lcgInc  uint64 = 1442695040888963407
)

// LCG is a 64-bit linear congruential generator with output scrambling.
// Its transition is the affine map state' = a*state + c (mod 2^64); the raw
// state is passed through a SplitMix64-style finalizer before being
// returned, which removes the weak low bits of a power-of-two-modulus LCG
// while preserving the exact leap-frog algebra on the underlying states.
type LCG struct {
	state uint64
	a, c  uint64 // per-stream transition (composed for leap-frog substreams)
}

// NewLCG returns a generator seeded with seed, using the canonical
// transition constants.
func NewLCG(seed uint64) *LCG {
	return &LCG{state: seed, a: lcgMult, c: lcgInc}
}

// Uint64 advances the generator one step and returns the scrambled state.
func (g *LCG) Uint64() uint64 {
	g.state = g.a*g.state + g.c
	return Mix64(g.state)
}

// affinePow composes the affine map x -> a*x + c with itself n times,
// returning the coefficients (an, cn) such that applying the map n times is
// x -> an*x + cn (mod 2^64). It runs in O(log n) by repeated squaring.
func affinePow(a, c, n uint64) (an, cn uint64) {
	an, cn = 1, 0 // identity map
	for n > 0 {
		if n&1 == 1 {
			// compose current accumulated map with (a, c):
			// x -> a*(an*x + cn) + c
			an, cn = a*an, a*cn+c
		}
		// square (a, c): x -> a*(a*x+c)+c = a^2 x + (a+1)c
		a, c = a*a, (a+1)*c
		n >>= 1
	}
	return an, cn
}

// LeapFrog returns the rank-th of stride interleaved substreams of g.
// Substream rank produces exactly the elements rank, rank+stride,
// rank+2*stride, ... of g's future output sequence. g itself is not
// advanced. rank must be in [0, stride).
func (g *LCG) LeapFrog(rank, stride int) *LCG {
	if stride <= 0 || rank < 0 || rank >= stride {
		panic("rng: LeapFrog requires 0 <= rank < stride")
	}
	// The substream's transition applies the base map stride times. Uint64
	// advances before returning, so the substream's initial state must be
	// one stride-step *before* its first output, which is base output
	// rank+1 (the state after rank+1 base steps).
	sa, sc := affinePow(g.a, g.c, uint64(stride))
	an, cn := affinePow(g.a, g.c, uint64(rank+1))
	first := an*g.state + cn
	inv := mulInverse(sa)
	return &LCG{state: inv * (first - sc), a: sa, c: sc}
}

// mulInverse returns the multiplicative inverse of odd a modulo 2^64 by
// Newton iteration (each step doubles the number of correct bits).
func mulInverse(a uint64) uint64 {
	x := a // correct to 3 bits for odd a
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}

// Mix64 is the SplitMix64 finalizer: a bijective scrambling of 64-bit
// values with good avalanche behaviour.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64Hi24 returns the top 24 bits of Mix64(z), skipping the finalizer's
// last xor-shift: z ^= z >> 31 only alters bits 0..32, so bits 63..40 of
// the second product stage already equal the finalized output's. Coin
// kernels that compare only these bits against an integer threshold (the
// IC decide loops) save two operations per draw without changing a single
// decision.
func Mix64Hi24(z uint64) uint32 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return uint32(z >> 40)
}

// SplitMixGamma is the SplitMix64 state increment (the Weyl constant).
// Exported so batch kernels can advance a raw SplitMix64 state inline —
// state += SplitMixGamma; value = Mix64(state) — generating coin blocks
// without an interface call per draw. The sequence is bit-identical to
// SplitMix64.Uint64 from the same state.
const SplitMixGamma uint64 = 0x9e3779b97f4a7c15

// SplitMixState returns the raw initial state of the stream
// Derive(seed, index) / Reseed(seed, index): the value such that repeated
// state += SplitMixGamma; Mix64(state) reproduces that stream exactly.
// It is the inline-kernel counterpart of Reseed.
func SplitMixState(seed, index uint64) uint64 {
	// Mirror of Reseed: the index is passed through the finalizer so that
	// adjacent indices do not yield shifted copies of one another.
	return Mix64(Mix64(seed^0x632be59bd9b4e019) ^ (index * 0xd1342543de82ef95))
}

// SplitMix64 is the SplitMix64 generator: a 64-bit counter passed through
// Mix64. It is used for per-sample randomness derivation and as an
// ablation alternative to the leap-frog LCG.
type SplitMix64 struct{ state uint64 }

// NewSplitMix64 returns a SplitMix64 generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Uint64 returns the next value of the stream.
func (g *SplitMix64) Uint64() uint64 {
	g.state += SplitMixGamma
	return Mix64(g.state)
}

// Derive returns a generator whose stream is a deterministic function of
// (seed, index) and statistically independent across indices. It is used to
// give every Monte Carlo sample its own stream so results do not depend on
// which worker or rank executes the sample.
func Derive(seed, index uint64) *SplitMix64 {
	g := new(SplitMix64)
	g.Reseed(seed, index)
	return g
}

// Reseed resets g in place to the exact stream Derive(seed, index) returns,
// so a per-worker generator can be re-pointed at each sample's stream
// without allocating a generator per sample.
func (g *SplitMix64) Reseed(seed, index uint64) {
	g.state = SplitMixState(seed, index)
}

// Rand wraps a Source with convenience distributions.
type Rand struct{ Src Source }

// New returns a Rand over src.
func New(src Source) *Rand { return &Rand{Src: src} }

// Uint64 returns the next raw value.
func (r *Rand) Uint64() uint64 { return r.Src.Uint64() }

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Src.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float32 returns a uniform value in [0, 1) with 24 bits of precision.
func (r *Rand) Float32() float32 {
	return float32(r.Src.Uint64()>>40) * (1.0 / (1 << 24))
}

// Intn returns a uniform value in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	hi, _ := bits.Mul64(r.Src.Uint64(), uint64(n))
	return int(hi)
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// NormFloat64 returns a standard normal variate (Box-Muller, polar form).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
