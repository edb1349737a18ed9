// Compression: the byte-coded RRR store against the flat arena — same
// seeds, a fraction of the memory.
//
//	go run ./examples/compression
//
// Options.Store picks the representation the final seed selection runs
// over. StoreFlat keeps the samples in a uint32 arena (4 bytes per entry
// plus 8 per sample); StoreCoded relabels vertices by incidence frequency
// and delta+varint codes each sample (DESIGN.md §13), shrinking the
// resident footprint several-fold on clustered graphs. The coding is a
// pure re-representation: counters, index and greedy argmax consume the
// identical sample sets, so theta, coverage and every selected seed match
// the flat run exactly.
package main

import (
	"fmt"
	"io"
	"os"
	"slices"

	"influmax"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes the same configuration under both stores and writes the
// demonstration output to w (the Example test pins this output).
func run(w io.Writer) error {
	// A deterministic scaled analog of the soc-Epinions1 social network,
	// with an edge probability low enough that samples stay sparse: a
	// dense draw (a mean sample of n/32 vertices or more) is held as a bit
	// matrix whatever Store says, since that beats both stores (DESIGN.md
	// §13.6).
	g := influmax.Generate("soc-Epinions1", 0.02, 3)
	g.AssignConstant(0.05)

	opt := influmax.Options{
		K: 5, Epsilon: 0.5, Model: influmax.IC, Workers: 4, Seed: 42,
	}

	opt.Store = influmax.StoreFlat
	flat, err := influmax.Maximize(g, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "flat : theta %d, seeds %v\n", flat.Theta, flat.Seeds)

	opt.Store = influmax.StoreCoded
	coded, err := influmax.Maximize(g, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "coded: theta %d, seeds %v\n", coded.Theta, coded.Seeds)

	// The store cannot change the answer — only what it costs to hold.
	fmt.Fprintf(w, "seed sets identical: %v\n", slices.Equal(flat.Seeds, coded.Seeds))
	fmt.Fprintf(w, "same samples generated: %v\n",
		flat.SamplesGenerated == coded.SamplesGenerated)

	// The memory story: StoreBytes is each run's resident store;
	// FlatStoreBytes is the flat-layout cost of the same samples, so
	// their quotient is the compression ratio (byte counts shift with
	// sampling details across versions, so print the ratio's floor,
	// which is the stable claim).
	ratio := float64(coded.FlatStoreBytes) / float64(coded.StoreBytes)
	fmt.Fprintf(w, "flat bytes match across runs: %v\n", coded.FlatStoreBytes == flat.StoreBytes)
	fmt.Fprintf(w, "coded store at least 3x smaller: %v\n", ratio >= 3.0)
	return nil
}
