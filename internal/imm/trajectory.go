package imm

import (
	"slices"

	"influmax/internal/graph"
)

// The per-epoch trajectory (DESIGN.md §11): greedy max-cover is
// prefix-consistent — the first k picks of a K-seed run are exactly the
// run at k — so one plain run to kMax answers every unit-cost question
// without an audience or a rival as a prefix. Trajectory is that run and
// the rule for which queries it answers; where it is kept (once per
// served sketch, once per fleet slot set) is the serving layer's business.

// Trajectory is one plain greedy run, kept so that the queries it answers
// cost a copy of k entries instead of a selection. It is immutable.
type Trajectory struct {
	res QueryResult
}

// NewTrajectory runs the plain selection for k seeds over be and keeps
// its seeds, gains and eligible total. The result is the backend's: when
// be restarted mid-run, the committed prefix was chosen over samples that
// did not all survive, so only a caller that saw no restart may serve
// further queries from it.
func NewTrajectory[C Count](be Coverage[C], n, k int) (*Trajectory, error) {
	res, err := Greedy(be, n, Query{K: k}, nil)
	if err != nil {
		return nil, err
	}
	return &Trajectory{res: *res}, nil
}

// Prefix reports whether q's answer is a prefix of the plain greedy run:
// unit costs (no Costs), no Audience and no Blocked set. Under unit costs
// the budgeted order (ratioBetter) reduces to the plain one and argmax
// stops once spent+1 exceeds the budget, so a bare Budget only shortens
// the prefix.
func (q Query) Prefix() bool {
	return len(q.Costs) == 0 && len(q.Audience) == 0 && len(q.Blocked) == 0
}

// Answer serves q from the trajectory: for a Prefix q, the first
// min(K, ⌊Budget⌋) seeds (K without a budget) with the gains, covered and
// eligible counts and spent budget Greedy would return, and onSeed, when
// non-nil, sees the lines Greedy would stream, in order. ok is false when
// q is not a Prefix query or asks for more seeds than the run holds; the
// caller then runs Greedy. The result owns its slices.
func (t *Trajectory) Answer(q Query, onSeed func(i int, v graph.Vertex, gain int64)) (res *QueryResult, ok bool) {
	m := q.K
	if q.Budgeted() && q.Budget < float64(m) {
		m = int(q.Budget)
	}
	if !q.Prefix() || m > len(t.res.Seeds) {
		return nil, false
	}
	res = &QueryResult{
		Seeds:    slices.Clone(t.res.Seeds[:m]),
		Gains:    slices.Clone(t.res.Gains[:m]),
		Eligible: t.res.Eligible,
	}
	if q.Budgeted() {
		res.SpentBudget = float64(m)
	}
	for i, gain := range res.Gains {
		res.Covered += gain
		if onSeed != nil {
			onSeed(i, res.Seeds[i], gain)
		}
	}
	return res, true
}
