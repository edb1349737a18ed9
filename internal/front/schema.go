package front

import (
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
)

// Overrides name a sketch configuration other than the backend's
// default; only immserve outside dynamic mode accepts them.
type Overrides struct {
	Epsilon *float64 `json:"epsilon,omitempty"`
	Model   *string  `json:"model,omitempty"`
	Seed    *uint64  `json:"seed,omitempty"`
}

// Any reports whether any override is present.
func (o Overrides) Any() bool { return o.Epsilon != nil || o.Model != nil || o.Seed != nil }

// SeedsRequest is the POST /v1/seeds body: k plus the optional query
// shape of DESIGN.md §17. An absent Budget, Audience or Blocked inherits
// the front's default; an explicit empty one clears it. Stream selects
// the NDJSON answer.
type SeedsRequest struct {
	K int `json:"k"`
	Overrides
	Costs    []float64       `json:"costs,omitempty"`
	Budget   *float64        `json:"budget,omitempty"`
	Audience *[]graph.Vertex `json:"audience,omitempty"`
	Blocked  *[]graph.Vertex `json:"blocked,omitempty"`
	Stream   bool            `json:"stream,omitempty"`
}

// Query resolves the request against the defaults.
func (r *SeedsRequest) Query(defaults imm.Query) imm.Query {
	q := imm.Query{K: r.K, Costs: r.Costs, Budget: defaults.Budget,
		Audience: defaults.Audience, Blocked: defaults.Blocked}
	if r.Budget != nil {
		q.Budget = *r.Budget
	}
	if r.Audience != nil {
		q.Audience = *r.Audience
	}
	if r.Blocked != nil {
		q.Blocked = *r.Blocked
	}
	return q
}

// SpreadRequest is the POST /v1/spread body.
type SpreadRequest struct {
	Seeds    []graph.Vertex `json:"seeds"`
	Audience []graph.Vertex `json:"audience,omitempty"`
	Overrides
}

// SeedsResponse is the POST /v1/seeds answer and a stream's last line.
// Gains, Eligible and SpentBudget appear only on non-plain queries.
type SeedsResponse struct {
	K                int            `json:"k"`
	KMax             int            `json:"kMax"`
	Seeds            []graph.Vertex `json:"seeds"`
	CoverageFraction float64        `json:"coverageFraction"`
	EstimatedSpread  float64        `json:"estimatedSpread"`
	Theta            int64          `json:"theta"`
	*Local
	*FleetSelection
	Gains       []int64 `json:"gains,omitempty"`
	Eligible    int64   `json:"eligible,omitempty"`
	SpentBudget float64 `json:"spentBudget,omitempty"`
}

// SpreadResponse is the POST /v1/spread answer; with an audience,
// EstimatedSpread is the expected number of audience members influenced.
type SpreadResponse struct {
	Covered          int64   `json:"covered"`
	Eligible         int64   `json:"eligible"`
	CoverageFraction float64 `json:"coverageFraction"`
	EstimatedSpread  float64 `json:"estimatedSpread"`
	Theta            int64   `json:"theta"`
	*Local
	*Fleet
}

// Local is what an answer from a resident sketch adds; Report is the
// per-query RunReport of /v1/seeds.
type Local struct {
	Cached     bool               `json:"cached"`
	Source     string             `json:"source"`
	DeltaEpoch uint64             `json:"deltaEpoch,omitempty"`
	Report     *metrics.RunReport `json:"report,omitempty"`
}

// Fleet is what an answer routed over a shard fleet adds.
type Fleet struct {
	TotalSamples int64 `json:"totalSamples"`
	Shards       int   `json:"shards"`
	Degraded     bool  `json:"degraded"`
	FailedShards []int `json:"failedShards"`
}

// FleetSelection is what a routed selection adds.
type FleetSelection struct {
	Fleet
	ShardEpochs []uint64 `json:"shardEpochs"`
	Rounds      int      `json:"rounds"`
}

// StreamedSeed is one NDJSON line: a seed just committed, with its gain
// as of selection.
type StreamedSeed struct {
	Index int          `json:"index"`
	Seed  graph.Vertex `json:"seed"`
	Gain  int64        `json:"gain"`
}
