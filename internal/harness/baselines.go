package harness

import (
	"fmt"
	"time"

	"influmax/internal/baseline"
	"influmax/internal/centrality"
	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
)

// baselines produces the classic cross-algorithm comparison every IM paper
// (and the paper's related-work section) rests on: solution quality
// (Monte Carlo spread) and wall-clock for IMM at two accuracies, TIM+,
// CELF/CELF++ with a Monte Carlo oracle, and the degree / degree-discount
// / k-shell heuristics, all at the same budget k.
func baselines(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	g, err := loadAnalog("soc-Epinions1", cfg)
	if err != nil {
		return nil, err
	}
	k := cfg.BaseK / 4
	if k < 1 {
		k = 1
	}
	if k >= g.NumVertices() {
		k = g.NumVertices() / 8
	}
	const oracleTrials = 200
	t := &Table{
		ID:    "Baselines",
		Title: fmt.Sprintf("Algorithm comparison (soc-Epinions1 analog, IC, k=%d)", k),
		Note: fmt.Sprintf("Scale %g; spread via %d Monte Carlo cascades; CELF variants use a %d-trial CRN oracle.",
			cfg.Scale, cfg.Trials, oracleTrials),
		Header: []string{"Algorithm", "Spread", "Time (s)", "Notes"},
	}
	type method struct {
		name string
		run  func() ([]graph.Vertex, string, error)
	}
	methods := []method{
		{"IMM (eps=0.13)", func() ([]graph.Vertex, string, error) {
			r, err := imm.Run(g, imm.Options{K: k, Epsilon: 0.13, Model: diffuse.IC, Workers: cfg.Workers, Seed: cfg.Seed})
			if err != nil {
				return nil, "", err
			}
			return r.Seeds, fmt.Sprintf("theta=%d", r.Theta), nil
		}},
		{"IMM (eps=0.5)", func() ([]graph.Vertex, string, error) {
			r, err := imm.Run(g, imm.Options{K: k, Epsilon: 0.5, Model: diffuse.IC, Workers: cfg.Workers, Seed: cfg.Seed})
			if err != nil {
				return nil, "", err
			}
			return r.Seeds, fmt.Sprintf("theta=%d", r.Theta), nil
		}},
		{"TIM+ (eps=0.5)", func() ([]graph.Vertex, string, error) {
			r, err := imm.RunTIMPlus(g, imm.Options{K: k, Epsilon: 0.5, Model: diffuse.IC, Workers: cfg.Workers, Seed: cfg.Seed})
			if err != nil {
				return nil, "", err
			}
			return r.Seeds, fmt.Sprintf("theta=%d", r.Theta), nil
		}},
		{"CELF", func() ([]graph.Vertex, string, error) {
			s, _, err := baseline.CELF(g, diffuse.IC, k, oracleTrials, cfg.Workers, cfg.Seed)
			return s, "", err
		}},
		{"CELF++", func() ([]graph.Vertex, string, error) {
			s, _, evals, err := baseline.CELFPlusPlus(g, diffuse.IC, k, oracleTrials, cfg.Workers, cfg.Seed)
			return s, fmt.Sprintf("evals=%d", evals), err
		}},
		{"degree discount", func() ([]graph.Vertex, string, error) {
			return baseline.DegreeDiscount(g, k, 0.1), "", nil
		}},
		{"single discount", func() ([]graph.Vertex, string, error) {
			return baseline.SingleDiscount(g, k), "", nil
		}},
		{"top degree", func() ([]graph.Vertex, string, error) {
			return baseline.TopDegree(g, k), "", nil
		}},
		{"k-shell", func() ([]graph.Vertex, string, error) {
			return centrality.KShellSeeds(g, k), "", nil
		}},
	}
	for _, m := range methods {
		start := time.Now()
		seeds, note, err := m.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		elapsed := time.Since(start).Seconds()
		spread, _ := diffuse.EstimateSpread(g, diffuse.IC, seeds, cfg.Trials, cfg.Workers, cfg.Seed^0xBA5E)
		t.Add(m.name, fmtF(spread), fmtDur(elapsed), note)
	}
	return t, nil
}
