package harness

import (
	"fmt"
	"sync"

	"influmax/internal/diffuse"
	"influmax/internal/dist"
	"influmax/internal/gen"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
	"influmax/internal/mpi"
	"influmax/internal/trace"
)

// loadAnalog generates the analog of the named dataset with IC weights
// assigned; callers normalize for LT when needed.
func loadAnalog(name string, cfg Config) (*graph.Graph, error) {
	d, err := gen.ByName(name)
	if err != nil {
		return nil, err
	}
	g := d.Generate(cfg.Scale, cfg.Seed)
	g.AssignUniform(cfg.Seed ^ 0x5eed)
	return g, nil
}

// prepModel returns the graph ready for the given model (LT needs
// normalized in-weights).
func prepModel(g *graph.Graph, model diffuse.Model) *graph.Graph {
	if model == diffuse.LT {
		g.NormalizeLT()
	}
	return g
}

// runIMM and runIMMBaseline execute one shared-memory run and log its
// RunReport into the config's report sink (a no-op without one), so every
// figure and table regeneration leaves a machine-readable trajectory.
func runIMM(cfg Config, g *graph.Graph, opt imm.Options) (*imm.Result, error) {
	res, err := imm.Run(g, opt)
	if err == nil {
		cfg.record(res.Report(opt))
	}
	return res, err
}

func runIMMBaseline(cfg Config, g *graph.Graph, opt imm.Options) (*imm.Result, error) {
	res, err := imm.RunBaseline(g, opt)
	if err == nil {
		cfg.record(res.Report(opt))
	}
	return res, err
}

// defaultSmall is the dataset subset used by the sweep figures when the
// config does not filter (kept to the four smaller graphs so a full run is
// tractable on one machine; pass -datasets to widen).
var defaultSmall = []string{"cit-HepTh", "soc-Epinions1", "com-Amazon", "com-DBLP"}

// defaultBig is the four biggest graphs, used by the distributed figures
// as in the paper ("Smaller graphs do not produce sufficient work").
var defaultBig = []string{"com-YouTube", "soc-Pokec", "soc-LiveJournal1", "com-Orkut"}

// fig1 regenerates Figure 1: activated vertices as a function of the seed
// set size k at the state-of-the-art accuracy (eps = 0.5) and this paper's
// accuracy (eps = 0.13), evaluated by forward Monte Carlo.
func fig1(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	g, err := loadAnalog("cit-HepTh", cfg)
	if err != nil {
		return nil, err
	}
	ks := cfg.KValues
	if ks == nil {
		ks = []int{25, 50, 75, 100, 125, 150, 175, 200}
	}
	t := &Table{
		ID:     "Figure 1",
		Title:  "Activated vertices vs seed set size and approximation quality",
		Note:   fmt.Sprintf("cit-HepTh analog (scale %g), IC model; spread via %d Monte Carlo cascades.", cfg.Scale, cfg.Trials),
		Header: []string{"k", "eps=0.50 activated", "eps=0.13 activated"},
	}
	for _, k := range ks {
		if k >= g.NumVertices() {
			continue
		}
		row := []string{fmt.Sprintf("%d", k)}
		for _, eps := range []float64{0.5, 0.13} {
			res, err := runIMM(cfg, g, imm.Options{K: k, Epsilon: eps, Model: diffuse.IC, Workers: cfg.Workers, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			spread, _ := diffuse.EstimateSpread(g, diffuse.IC, res.Seeds, cfg.Trials, cfg.Workers, cfg.Seed^0xf19)
			row = append(row, fmtF(spread))
		}
		t.Add(row...)
	}
	return t, nil
}

// table2 regenerates Table 2: serial IMM (Tang-style bidirectional store)
// vs IMMopt (compact store) — time, RRR-store memory, speedup and savings,
// per dataset, at eps = 0.5, k = 50.
func table2(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "Table 2",
		Title: "Serial execution time and memory usage of IMM vs IMMopt (eps=0.5, k=50)",
		Note: fmt.Sprintf("Synthetic analogs at scale %g; memory is the RRR-store footprint. "+
			"IMMopt store names the layout the timed run held: \"matrix\" on a dense draw (DESIGN.md §13.6), "+
			"whose IMMopt (MB) is still the compact arena the paper compares, which that run never built.", cfg.Scale),
		Header: []string{"Graph", "Nodes", "Edges", "AvgDeg", "MaxDeg", "IMM (s)", "IMMopt (s)", "IMMopt store", "Speedup", "IMM (MB)", "IMMopt (MB)", "% savings"},
	}
	for _, d := range gen.Datasets() {
		if !cfg.wantDataset(d.Name) {
			continue
		}
		g, err := loadAnalog(d.Name, cfg)
		if err != nil {
			return nil, err
		}
		st := g.ComputeStats()
		k := 50
		if k >= st.Vertices {
			k = st.Vertices / 2
		}
		opt := imm.Options{K: k, Epsilon: 0.5, Model: diffuse.IC, Workers: 1, Seed: cfg.Seed}
		base, err := runIMMBaseline(cfg, g, opt)
		if err != nil {
			return nil, err
		}
		fast, err := runIMM(cfg, g, opt)
		if err != nil {
			return nil, err
		}
		bs, fs := base.Phases.Total().Seconds(), fast.Phases.Total().Seconds()
		// IMMopt's memory column is the paper's compact arena, whichever
		// store the run selected on (a dense draw keeps the bit matrix).
		bm, fm := float64(base.StoreBytes)/(1<<20), float64(fast.FlatStoreBytes)/(1<<20)
		t.Add(d.Name,
			fmt.Sprintf("%d", st.Vertices), fmt.Sprintf("%d", st.Edges),
			fmtF(st.AvgDegree), fmt.Sprintf("%d", st.MaxDegree),
			fmtDur(bs), fmtDur(fs), fast.Store.String(), fmtF(bs/fs)+"x",
			fmtF(bm), fmtF(fm), fmtF(100*(1-fm/bm))+"%")
	}
	return t, nil
}

// fig2 regenerates Figure 2: theta as a function of eps and k on the
// cit-HepTh analog (log-scale growth as eps shrinks).
func fig2(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	g, err := loadAnalog("cit-HepTh", cfg)
	if err != nil {
		return nil, err
	}
	epss := cfg.EpsValues
	if epss == nil {
		epss = []float64{0.2, 0.3, 0.4, 0.5, 0.6}
	}
	ks := cfg.KValues
	if ks == nil {
		ks = []int{10, 30, 50, 70, 90}
	}
	// Keep only budgets the analog can satisfy.
	valid := ks[:0:0]
	for _, k := range ks {
		if k < g.NumVertices() {
			valid = append(valid, k)
		}
	}
	ks = valid
	header := []string{"eps \\ k"}
	for _, k := range ks {
		header = append(header, fmt.Sprintf("k=%d", k))
	}
	t := &Table{
		ID:     "Figure 2",
		Title:  "Number of RRR sets (theta) vs eps and k",
		Note:   fmt.Sprintf("cit-HepTh analog (n=%d); each cell is the estimated theta.", g.NumVertices()),
		Header: header,
	}
	for _, eps := range epss {
		row := []string{fmt.Sprintf("%.2f", eps)}
		for _, k := range ks {
			res, err := runIMM(cfg, g, imm.Options{K: k, Epsilon: eps, Model: diffuse.IC, Workers: cfg.Workers, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", res.Theta))
		}
		t.Add(row...)
	}
	return t, nil
}

// phaseRow renders an IMM result's phase breakdown.
func phaseRow(prefix []string, ph trace.Times) []string {
	return append(prefix,
		fmtDur(ph.Get(trace.Estimation).Seconds()),
		fmtDur(ph.Get(trace.Sampling).Seconds()),
		fmtDur(ph.Get(trace.IndexBuild).Seconds()),
		fmtDur(ph.Get(trace.SelectSeeds).Seconds()),
		fmtDur(ph.Get(trace.Other).Seconds()),
		fmtDur(ph.Total().Seconds()))
}

var phaseHeader = []string{"EstimateTheta (s)", "Sample (s)", "BuildIndex (s)", "SelectSeeds (s)", "Other (s)", "Total (s)"}

// fig3 regenerates Figure 3: runtime vs eps at k = 50, IC model, with the
// per-phase breakdown, for each dataset.
func fig3(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	epss := cfg.EpsValues
	if epss == nil {
		epss = []float64{0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50}
	}
	t := &Table{
		ID:     "Figure 3",
		Title:  "Impact of eps on runtime (k=50, IC), phase breakdown",
		Note:   fmt.Sprintf("Scale %g, %d threads.", cfg.Scale, cfg.Workers),
		Header: append([]string{"Graph", "eps"}, phaseHeader...),
	}
	for _, name := range defaultSmall {
		if !cfg.wantDataset(name) {
			continue
		}
		g, err := loadAnalog(name, cfg)
		if err != nil {
			return nil, err
		}
		for _, eps := range epss {
			res, err := runIMM(cfg, g, imm.Options{K: 50, Epsilon: eps, Model: diffuse.IC, Workers: cfg.Workers, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, phaseRow([]string{name, fmt.Sprintf("%.2f", eps)}, res.Phases))
		}
	}
	return t, nil
}

// fig4 regenerates Figure 4: runtime vs k at eps = 0.5, IC model, phase
// breakdown.
func fig4(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	ks := cfg.KValues
	if ks == nil {
		ks = []int{10, 25, 40, 55, 70, 85, 100}
	}
	t := &Table{
		ID:     "Figure 4",
		Title:  "Impact of k on runtime (eps=0.5, IC), phase breakdown",
		Note:   fmt.Sprintf("Scale %g, %d threads.", cfg.Scale, cfg.Workers),
		Header: append([]string{"Graph", "k"}, phaseHeader...),
	}
	for _, name := range defaultSmall {
		if !cfg.wantDataset(name) {
			continue
		}
		g, err := loadAnalog(name, cfg)
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			if k >= g.NumVertices() {
				continue
			}
			res, err := runIMM(cfg, g, imm.Options{K: k, Epsilon: 0.5, Model: diffuse.IC, Workers: cfg.Workers, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, phaseRow([]string{name, fmt.Sprintf("%d", k)}, res.Phases))
		}
	}
	return t, nil
}

// scaling runs the thread sweep behind Figures 5 (LT) and 6 (IC).
func scaling(cfg Config, model diffuse.Model, id string) (*Table, error) {
	cfg = cfg.withDefaults()
	threads := cfg.Threads
	if threads == nil {
		for p := 1; p <= cfg.Workers; p *= 2 {
			threads = append(threads, p)
		}
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Multithreaded strong scaling (%s model, eps=0.5, k=%d)", model, cfg.BaseK),
		Note:   fmt.Sprintf("Scale %g; speedup relative to 1 thread.", cfg.Scale),
		Header: append([]string{"Graph", "Threads"}, append(phaseHeader, "Speedup", "WorkBalance")...),
	}
	for _, name := range defaultSmall {
		if !cfg.wantDataset(name) {
			continue
		}
		g, err := loadAnalog(name, cfg)
		if err != nil {
			return nil, err
		}
		prepModel(g, model)
		k := cfg.BaseK
		if k >= g.NumVertices() {
			k = g.NumVertices() / 2
		}
		base := 0.0
		for _, p := range threads {
			res, err := runIMM(cfg, g, imm.Options{K: k, Epsilon: 0.5, Model: model, Workers: p, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			total := res.Phases.Total().Seconds()
			if base == 0 {
				base = total
			}
			row := phaseRow([]string{name, fmt.Sprintf("%d", p)}, res.Phases)
			row = append(row, fmtF(base/total)+"x", fmtF(res.WorkBalance))
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// fig5 regenerates Figure 5 (LT multithreaded scaling).
func fig5(cfg Config) (*Table, error) { return scaling(cfg, diffuse.LT, "Figure 5") }

// fig6 regenerates Figure 6 (IC multithreaded scaling).
func fig6(cfg Config) (*Table, error) { return scaling(cfg, diffuse.IC, "Figure 6") }

// distScaling runs the rank sweep behind Figures 7 and 8 on an in-process
// cluster (each rank is a goroutine over the local transport).
func distScaling(cfg Config, id string, ranks []int, models []diffuse.Model) (*Table, error) {
	cfg = cfg.withDefaults()
	if cfg.Ranks != nil {
		ranks = cfg.Ranks
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Distributed strong scaling (eps=%.2f, k=%d)", cfg.DistEps, cfg.DistK),
		Note:   fmt.Sprintf("Scale %g; in-process ranks over the local transport, 1 thread per rank.", cfg.Scale),
		Header: append([]string{"Graph", "Model", "Ranks"}, append(phaseHeader, "Speedup", "WorkBalance")...),
	}
	for _, name := range defaultBig {
		if !cfg.wantDataset(name) {
			continue
		}
		gIC, err := loadAnalog(name, cfg)
		if err != nil {
			return nil, err
		}
		for _, model := range models {
			g := gIC
			if model == diffuse.LT {
				g, err = loadAnalog(name, cfg)
				if err != nil {
					return nil, err
				}
				prepModel(g, diffuse.LT)
			}
			k := cfg.DistK
			if k >= g.NumVertices() {
				k = g.NumVertices() / 4
			}
			base := 0.0
			for _, p := range ranks {
				res, balance, err := runDistributed(cfg, g, p, dist.Options{
					K: k, Epsilon: cfg.DistEps, Model: model, Seed: cfg.Seed, ThreadsPerRank: 1,
				})
				if err != nil {
					return nil, err
				}
				total := res.Phases.Total().Seconds()
				if base == 0 {
					base = total // speedup relative to the first configuration
				}
				row := phaseRow([]string{name, model.String(), fmt.Sprintf("%d", p)}, res.Phases)
				row = append(row, fmtF(base/total)+"x", fmtF(balance))
				t.Rows = append(t.Rows, row)
			}
		}
	}
	return t, nil
}

// fig7 regenerates Figure 7: distributed scaling at Puma-like rank counts.
func fig7(cfg Config) (*Table, error) {
	return distScaling(cfg, "Figure 7", []int{2, 4, 8, 16}, []diffuse.Model{diffuse.IC, diffuse.LT})
}

// fig8 regenerates Figure 8: distributed scaling at Edison-like rank
// counts (scaled down: the shape, not the node count, is the target).
func fig8(cfg Config) (*Table, error) {
	return distScaling(cfg, "Figure 8", []int{4, 8, 16, 32}, []diffuse.Model{diffuse.IC, diffuse.LT})
}

// runDistributed spins an in-process cluster of p ranks and returns rank
// 0's result plus the sampling-work balance across ranks (avg/max local
// work: 1.0 is a perfect partition; it bounds strong-scaling efficiency
// on real hardware). With a report sink configured, the merged RunReport
// — including the per-rank sub-reports — is logged as well.
func runDistributed(cfg Config, g *graph.Graph, p int, opt dist.Options) (*dist.Result, float64, error) {
	comms := mpi.NewLocalCluster(p)
	results := make([]*dist.Result, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank], errs[rank] = dist.Run(comms[rank], g, opt)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	if cfg.Reports != nil {
		cfg.record(dist.ReportLocal(opt, results))
	}
	work := make([]int64, p)
	for r, res := range results {
		work[r] = res.LocalWork
	}
	balance := metrics.WorkBalanceOf(work)
	if balance == 0 {
		balance = 1.0 // no recorded work: trivially balanced
	}
	return results[0], balance, nil
}

// table3 regenerates Table 3: end-to-end runtime of the four
// implementations on the two largest graphs, with speedups relative to the
// serial Tang-style baseline. IMM/IMMopt/IMMmt run at eps=0.5, k=100;
// IMMdist runs at the higher accuracy eps=0.13 with k=200, as in the
// paper's headline comparison.
func table3(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	names := []string{"com-Orkut", "soc-LiveJournal1"}
	t := &Table{
		ID:     "Table 3",
		Title:  "Improvement in runtime relative to IMM",
		Note:   fmt.Sprintf("Scale %g; IMMdist uses %d in-process ranks.", cfg.Scale, distRanksFor(cfg)),
		Header: []string{"Graph", "Implementation", "eps", "k", "Time (s)", "Speedup"},
	}
	for _, name := range names {
		if !cfg.wantDataset(name) {
			continue
		}
		g, err := loadAnalog(name, cfg)
		if err != nil {
			return nil, err
		}
		k := cfg.BaseK
		if k >= g.NumVertices() {
			k = g.NumVertices() / 4
		}
		k2 := cfg.DistK
		if k2 >= g.NumVertices() {
			k2 = g.NumVertices() / 2
		}
		opt := imm.Options{K: k, Epsilon: 0.5, Model: diffuse.IC, Workers: 1, Seed: cfg.Seed}
		base, err := runIMMBaseline(cfg, g, opt)
		if err != nil {
			return nil, err
		}
		baseT := base.Phases.Total().Seconds()
		t.Add(name, "IMM", "0.50", fmt.Sprintf("%d", k), fmtDur(baseT), "1.00x")

		fast, err := runIMM(cfg, g, opt)
		if err != nil {
			return nil, err
		}
		t.Add(name, "IMMopt", "0.50", fmt.Sprintf("%d", k), fmtDur(fast.Phases.Total().Seconds()), fmtF(baseT/fast.Phases.Total().Seconds())+"x")

		opt.Workers = cfg.Workers
		mt, err := runIMM(cfg, g, opt)
		if err != nil {
			return nil, err
		}
		t.Add(name, "IMMmt", "0.50", fmt.Sprintf("%d", k), fmtDur(mt.Phases.Total().Seconds()), fmtF(baseT/mt.Phases.Total().Seconds())+"x")

		dres, _, err := runDistributed(cfg, g, distRanksFor(cfg), dist.Options{
			K: k2, Epsilon: cfg.DistEps, Model: diffuse.IC, Seed: cfg.Seed, ThreadsPerRank: 1,
		})
		if err != nil {
			return nil, err
		}
		t.Add(name, "IMMdist", fmt.Sprintf("%.2f", cfg.DistEps), fmt.Sprintf("%d", k2), fmtDur(dres.Phases.Total().Seconds()), fmtF(baseT/dres.Phases.Total().Seconds())+"x")
	}
	return t, nil
}

// distRanksFor picks the rank count for Table 3's IMMdist row.
func distRanksFor(cfg Config) int {
	p := cfg.Workers
	if p < 2 {
		p = 2
	}
	if p > 8 {
		p = 8
	}
	return p
}
