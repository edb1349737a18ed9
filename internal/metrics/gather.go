package metrics

import (
	"encoding/json"
	"fmt"

	"influmax/internal/mpi"
)

// GatherRankReports gathers every rank's sub-report at rank 0 over the mpi
// substrate. It is a collective: all ranks must call it with their own
// local report; rank 0 receives the reports indexed by rank, other ranks
// receive nil. Wire format is JSON, carried by the GatherBytes collective,
// so the struct can grow fields without touching the transport.
func GatherRankReports(c mpi.Comm, local RankReport) ([]RankReport, error) {
	payload, err := json.Marshal(local)
	if err != nil {
		return nil, fmt.Errorf("metrics: encode rank report: %w", err)
	}
	parts, err := mpi.GatherBytes(c, payload)
	if err != nil {
		return nil, err
	}
	if c.Rank() != 0 {
		return nil, nil
	}
	out := make([]RankReport, len(parts))
	for r, p := range parts {
		if err := json.Unmarshal(p, &out[r]); err != nil {
			return nil, fmt.Errorf("metrics: decode rank %d report: %w", r, err)
		}
		if out[r].Rank != r {
			return nil, fmt.Errorf("metrics: rank %d sent report labeled rank %d", r, out[r].Rank)
		}
	}
	return out, nil
}
