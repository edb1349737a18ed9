// Package imm implements the paper's primary contribution: parallel IMM.
//
// IMM (Tang et al., SIGMOD 2015) solves influence maximization with a
// (1 - 1/e - eps) approximation guarantee by (i) estimating the number
// theta of random reverse reachable sets needed via a martingale lower
// bound on OPT (Algorithm 2), (ii) generating theta samples (Algorithm 3),
// and (iii) greedily selecting k seeds that cover the maximum number of
// samples (Algorithm 4).
//
// This package provides three of the paper's four implementations:
//
//   - Run with Options.Workers == 1 is IMMopt, the optimized sequential
//     baseline with the compact one-directional sample store;
//   - Run with Options.Workers > 1 is IMMmt, the multithreaded
//     implementation with parallel sampling and the synchronization-free
//     vertex-interval seed selection of Algorithm 4;
//   - RunBaseline is "IMM", a faithful re-creation of the reference
//     implementation's bidirectional hypergraph strategy, used as the
//     Table 2/3 baseline.
//
// The fourth implementation, IMMdist, lives in internal/dist on top of the
// internal/mpi substrate.
package imm

import (
	"errors"
	"fmt"
	"strings"

	"influmax/internal/diffuse"
	"influmax/internal/metrics"
	"influmax/internal/par"
)

// RNGMode selects how sampling randomness is assigned to workers.
type RNGMode uint8

const (
	// PerSample derives an independent stream for every sample index, so
	// the generated collection is identical regardless of worker count.
	// This is the default because it makes parallel runs reproducible.
	PerSample RNGMode = iota
	// LeapFrog splits one global LCG sequence across workers with the Leap
	// Frog method, exactly as the paper's distributed implementation does
	// with TRNG. Statistically equivalent; the collection then depends on
	// the worker count, as in the original.
	LeapFrog
)

// String names the mode.
func (m RNGMode) String() string {
	switch m {
	case PerSample:
		return "per-sample"
	case LeapFrog:
		return "leap-frog"
	}
	return fmt.Sprintf("RNGMode(%d)", uint8(m))
}

// StoreKind names a representation of the finished RRR sample
// collection. As Options.Store it is the labeling of a byte-coded store
// that is kept (DrawCoded, RunSketch, the serving layer); in a Result it
// is the store the final seed selection ran over.
type StoreKind uint8

const (
	// StoreFlat is the default. Run and RunCollect report it for a
	// selection over the compact one-directional uint32 arena
	// (rrr.Collection: 4 bytes per entry plus 8 bytes per sample, the
	// paper's Section 3.1 layout). As a labeling it codes the kept store
	// (rrr.CodedCollection, delta+varint payloads) under the original
	// vertex ids.
	StoreFlat StoreKind = iota
	// StoreCoded codes the kept store under the frequency-ordered
	// relabeling of DESIGN.md §13.1: a larger store and a slower
	// transcode than StoreFlat's labeling, bought back by a faster
	// decrementing purge (EXPERIMENTS.md "Labeling: bytes against purge
	// speed"). Selection output is byte-identical under either labeling.
	StoreCoded
	// StoreMatrix is not an option but a report: Run stamps it on a
	// dense draw, whose samples it keeps and selects on as the n × theta
	// bit matrix the fused kernel computes (rrr.Matrix, DESIGN.md §13.6).
	// ParseStoreKind does not accept it.
	StoreMatrix
)

// String names the store kind, matching the CLI -store flag values.
func (s StoreKind) String() string {
	switch s {
	case StoreFlat:
		return "flat"
	case StoreCoded:
		return "coded"
	case StoreMatrix:
		return "matrix"
	}
	return fmt.Sprintf("StoreKind(%d)", uint8(s))
}

// ParseStoreKind parses the -store flag values "flat" and "coded"
// (case-insensitive).
func ParseStoreKind(s string) (StoreKind, error) {
	switch strings.ToLower(s) {
	case "flat":
		return StoreFlat, nil
	case "coded":
		return StoreCoded, nil
	}
	return 0, fmt.Errorf("unknown store kind %q (want flat or coded)", s)
}

// Options configures an IMM run.
type Options struct {
	// K is the seed-set cardinality.
	K int
	// Epsilon is the accuracy parameter in (0, 1); the approximation
	// guarantee is 1 - 1/e - Epsilon. Smaller is more accurate and more
	// expensive (Figure 2).
	Epsilon float64
	// Model is the diffusion model (IC or LT).
	Model diffuse.Model
	// Workers is the number of threads; <= 0 uses GOMAXPROCS.
	Workers int
	// Seed feeds the pseudorandom streams.
	Seed uint64
	// RNG selects the stream-splitting discipline, and with it the
	// sampling engine. PerSample runs the fused CSR frontier kernel
	// (diffuse.FusedSampler: batches of up to 64 samples per pass over the
	// in-CSR) under chunked work-stealing (par.DynamicSteal). LeapFrog
	// runs the paper's engine: the per-sample reverse-BFS/walk kernel
	// (diffuse.Sampler) on the static contiguous split, because its
	// worker-pinned streams interleave all of a worker's samples on one
	// sequence, which neither a batched expansion nor a stolen chunk can
	// reproduce (DESIGN.md §12, §14).
	RNG RNGMode
	// Store is the labeling of the byte-coded store DrawCoded and
	// RunSketch keep: StoreFlat (the default) keeps the vertex ids,
	// StoreCoded relabels by frequency. Run, Draw and RunCollect select
	// over the samples as drawn and do not read it. Seeds are identical
	// either way.
	Store StoreKind
	// L is the confidence exponent: the guarantee holds with probability
	// at least 1 - 1/n^L. Zero means the customary 1.
	L float64
	// Metrics, when non-nil, receives engine-internal instrumentation
	// during the run: the "rrr/samples" and "rrr/entries" counters, the
	// "rrr/size" histogram of RRR-set cardinalities (the sampling-work
	// distribution behind the paper's load-balance discussion) and the
	// "rrr/index-entries" counter of entries written into the incidence
	// index, which equals "rrr/entries" when each sample is indexed once
	// (and reads 0 after a Run that selected on a dense draw's bit matrix,
	// which needs no index).
	// Recording is atomic and allocation-free; nil disables it entirely.
	Metrics *metrics.Registry

	// scalar and static force the scalar kernel and the static split in
	// PerSample mode. The generated collection is byte-identical either
	// way; this package's tests set them to use the paper's engine as the
	// oracle for the fused kernel and the work-stealing schedule.
	scalar, static bool
}

// fused reports whether sampling runs the fused kernel: PerSample mode,
// unless a test forced the scalar oracle.
func (o Options) fused() bool { return o.RNG == PerSample && !o.scalar }

// withDefaults returns a copy of o with zero values resolved.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = par.DefaultWorkers()
	}
	if o.L == 0 {
		o.L = 1
	}
	return o
}

// validate reports the first configuration error for a graph of n vertices.
func (o Options) validate(n int) error {
	if n < 2 {
		return errors.New("imm: graph must have at least 2 vertices")
	}
	if o.K < 1 {
		return fmt.Errorf("imm: k = %d, want k >= 1", o.K)
	}
	if o.K > n {
		return fmt.Errorf("imm: k = %d exceeds vertex count %d", o.K, n)
	}
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		return fmt.Errorf("imm: epsilon = %v, want 0 < eps < 1", o.Epsilon)
	}
	if o.L < 0 {
		return fmt.Errorf("imm: l = %v, want l > 0", o.L)
	}
	if o.Store > StoreCoded {
		return fmt.Errorf("imm: unknown store kind %d", uint8(o.Store))
	}
	return nil
}
