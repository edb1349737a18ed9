// Queries: one resident sketch, four selection shapes (DESIGN.md §17).
//
// A sketch built once answers more than plain top-k: this example runs a
// budgeted (cost-aware) selection, a targeted (audience-restricted)
// selection, a competitive selection against a rival's seeds, and a
// direct spread estimate of a hand-picked set — all over the same theta
// RRR samples, with no resampling between queries.
//
//	go run ./examples/queries
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"influmax"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A synthetic scale-free network with uniform activation
	// probabilities; everything below is a pure function of these seeds.
	g := influmax.Generate("cit-HepTh", 0.03, 3)
	g.AssignUniform(9)

	key := influmax.SketchKey{
		GraphDigest: g.Digest(), Model: influmax.IC, Epsilon: 0.5, KMax: 20, Seed: 11,
	}
	sk, err := influmax.BuildSketch(g, key, 0, influmax.StoreCoded, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sketch: %d samples over %d vertices\n", sk.Col.Count(), sk.Col.NumVertices())

	// Plain top-k: byte-identical to influmax.Maximize at the same
	// configuration.
	plain, err := influmax.QuerySketch(sk, influmax.SketchQuery{K: 5}, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "plain top-5:      %v (covers %d samples)\n", plain.Seeds, plain.Covered)

	// Budgeted: vertex v costs 1 + v%3 units; four units to spend. The
	// greedy ranks by exact marginal-gain-per-cost (the CELF rule), so
	// cheap well-placed vertices can beat the plain winner.
	costs := make([]float64, g.NumVertices())
	for v := range costs {
		costs[v] = float64(1 + v%3)
	}
	budgeted, err := influmax.QuerySketch(sk, influmax.SketchQuery{K: 5, Costs: costs, Budget: 4}, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "budget 4:         %v (spent %.0f)\n", budgeted.Seeds, budgeted.SpentBudget)

	// Targeted: only influence ON the audience counts — samples rooted
	// outside it are ignored by the objective.
	var audience []influmax.Vertex
	for v := 0; v < g.NumVertices(); v += 2 {
		audience = append(audience, influmax.Vertex(v))
	}
	targeted, err := influmax.QuerySketch(sk, influmax.SketchQuery{K: 5, Audience: audience}, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "targeted top-5:   %v (%d of %d samples eligible)\n",
		targeted.Seeds, targeted.Eligible, sk.Col.Count())

	// Competitive: the rival already holds the two best plain seeds;
	// select around them, counting only incremental coverage.
	rival := plain.Seeds[:2]
	blocked, err := influmax.QuerySketch(sk, influmax.SketchQuery{K: 5, Blocked: rival}, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "vs rival %v: %v\n", rival, blocked.Seeds)

	// Direct spread estimation: the same estimator the selections
	// optimize, exposed for caller-supplied seed sets.
	est, covered, _, err := influmax.EstimateSpread(sk, plain.Seeds, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "spread(plain):    %.1f vertices (%d samples covered)\n", est, covered)
	estAud, _, eligible, err := influmax.EstimateSpread(sk, plain.Seeds, audience)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "spread(audience): %.1f audience members (%d samples eligible)\n", estAud, eligible)
	return nil
}
