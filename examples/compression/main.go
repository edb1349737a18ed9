// Compression: the byte-coded RRR store of a kept sketch against the flat
// arena of a one-shot run — same seeds, a fraction of the memory.
//
//	go run ./examples/compression
//
// Maximize selects over the samples as drawn: a uint32 arena (4 bytes per
// entry plus 8 per sample). A sketch kept to answer many queries
// (BuildSketch) delta+varint codes each sample instead (DESIGN.md §13),
// shrinking the resident footprint several-fold on clustered graphs; the
// store argument picks its labeling, the vertex ids (StoreFlat) or a
// frequency-ordered relabeling (StoreCoded). The coding is a pure
// re-representation: counters, index and greedy argmax consume the
// identical sample sets, so theta and every selected seed match the
// one-shot run exactly.
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

// run maximizes once over the flat arena, builds the sketch of the same
// configuration under both labelings, and writes the demonstration output
// to w (the Example test pins this output).
func run(w io.Writer) error {
	// A deterministic scaled analog of the soc-Epinions1 social network,
	// with an edge probability low enough that samples stay sparse: a
	// dense draw (a mean sample of n/32 vertices or more) is held as a bit
	// matrix, since that beats both the arena and the coded store
	// (DESIGN.md §13.6).
	g := influmax.Generate("soc-Epinions1", 0.02, 3)
	g.AssignConstant(0.05)

	const k, eps, seed = 5, 0.5, 42
	flat, err := influmax.Maximize(g, influmax.Options{
		K: k, Epsilon: eps, Model: influmax.IC, Workers: 4, Seed: seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "flat arena : theta %d, seeds %v\n", flat.Theta, flat.Seeds)

	key := influmax.SketchKey{GraphDigest: g.Digest(), Model: influmax.IC, Epsilon: eps, KMax: k, Seed: seed}
	for _, c := range []struct {
		name  string
		store influmax.StoreKind
	}{{"vertex ids", influmax.StoreFlat}, {"relabeled ", influmax.StoreCoded}} {
		sk, err := influmax.BuildSketch(g, key, 4, c.store, nil)
		if err != nil {
			return err
		}
		q, err := influmax.QuerySketch(sk, influmax.SketchQuery{K: k}, 4)
		if err != nil {
			return err
		}
		// The store cannot change the answer — only what it costs to
		// hold. Col.FlatBytes is the flat-arena cost of the same samples,
		// so its quotient by Col.Bytes is the compression ratio (byte
		// counts shift with sampling details across versions, so print
		// the ratio's floor, which is the stable claim).
		ratio := float64(sk.Col.FlatBytes()) / float64(sk.Col.Bytes())
		fmt.Fprintf(w, "%s : theta %d, same seeds %v, same samples %v, flat bytes match %v, at least 3x smaller %v\n",
			c.name, sk.Theta, slices.Equal(q.Seeds, flat.Seeds), sk.Col.Count() == flat.SamplesGenerated,
			sk.Col.FlatBytes() == flat.StoreBytes, ratio >= 3.0)
	}
	return nil
}
