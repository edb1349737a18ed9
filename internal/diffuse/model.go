// Package diffuse implements the two network-diffusion models of the paper
// (Independent Cascade and Linear Threshold) in both directions:
//
//   - forward: the probabilistic BFS from a seed set that defines the
//     influence set I(S) (Section 3, Problem Statement), used to evaluate
//     solution quality by Monte Carlo;
//   - reverse: the probabilistic traversal of incoming edges that generates
//     a random reverse reachable (RRR) set (Definitions 2-3, Algorithm 3's
//     GenerateRR), the workhorse of IMM sampling.
//
// As in the paper's implementation, sampled subgraphs g ~ G are never
// materialized: each edge's removal coin is flipped lazily as the traversal
// reaches it, which yields the same distribution for a single traversal.
package diffuse

import (
	"fmt"
	"strings"
)

// Model selects the diffusion process.
type Model uint8

const (
	// IC is the Independent Cascade model: an activated vertex u has one
	// chance to activate each inactive out-neighbor v, succeeding with
	// probability p(u,v) independent of history.
	IC Model = iota
	// LT is the Linear Threshold model: vertex v activates when the weight
	// of its active in-neighbors exceeds a uniform random threshold; its
	// reverse-sampling equivalent selects at most one incoming edge per
	// vertex (the triggering-set view of Kempe et al.).
	LT
)

// String returns the conventional short name of the model.
func (m Model) String() string {
	switch m {
	case IC:
		return "IC"
	case LT:
		return "LT"
	}
	return fmt.Sprintf("Model(%d)", uint8(m))
}

// ParseModel parses "IC" or "LT" (case-insensitive). The error quotes at
// most the first 32 characters of a rejected s, and its length: s may be
// a client's, and a megabyte name must not come back as a megabyte error.
func ParseModel(s string) (Model, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "IC":
		return IC, nil
	case "LT":
		return LT, nil
	}
	return IC, fmt.Errorf("diffuse: unknown model %.32q of %d bytes (want IC or LT)", s, len(s))
}
