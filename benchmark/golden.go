package main

import (
	_ "embed"
	"encoding/json"
	"slices"

	"influmax/internal/graph"
)

// goldenSeed is the workload seed whose answers golden.json pins.
const goldenSeed = 1

//go:embed golden.json
var goldenData []byte

// A goldenEntry is the answer one workload gives for goldenSeed: the seed
// set of its canonical query and that set's coverage.
type goldenEntry struct {
	Seeds            []graph.Vertex `json:"seeds"`
	CoverageFraction float64        `json:"coverageFraction"`
	Theta            int64          `json:"theta"`
	// DeltaBatches is how many batches serve-delta's writer had applied;
	// the answer depends on it, and it depends on -seconds.
	DeltaBatches int `json:"deltaBatches,omitempty"`
}

// goldenKey names an entry: the sizes differ between the full and the
// smoke profile, and so do the answers.
func goldenKey(smoke bool, workload string) string {
	if smoke {
		return "smoke/" + workload
	}
	return "full/" + workload
}

func loadGolden() (map[string]goldenEntry, error) {
	entries := make(map[string]goldenEntry)
	if err := json.Unmarshal(goldenData, &entries); err != nil {
		return nil, err
	}
	return entries, nil
}

// checkGolden compares the run's answer with the pinned one. Other seeds,
// and a serve-delta run of another length, have no pinned answer; the
// cross-checks inside each workload cover them.
func (c *runCtx) checkGolden() {
	if c.seed != goldenSeed {
		return
	}
	entries, err := loadGolden()
	if err != nil {
		c.check(false, "golden.json: %v", err)
		return
	}
	want, ok := entries[goldenKey(c.smoke, c.spec.name)]
	if !ok || want.DeltaBatches != c.answer.DeltaBatches {
		return
	}
	c.check(slices.Equal(want.Seeds, c.answer.Seeds), "seeds differ from golden.json: got %v, want %v", c.answer.Seeds, want.Seeds)
	c.check(want.CoverageFraction == c.answer.CoverageFraction, "coverage fraction %v differs from golden.json's %v", c.answer.CoverageFraction, want.CoverageFraction)
	c.check(want.Theta == c.answer.Theta, "theta %d differs from golden.json's %d", c.answer.Theta, want.Theta)
}
