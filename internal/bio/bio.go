// Package bio reproduces the Section 5 case study: influence maximization
// on biological co-expression networks, compared against degree and
// betweenness centrality through pathway-enrichment analysis.
//
// The paper's pipeline was: multi-omic measurements -> GENIE3
// (random-forest co-expression inference) -> directed weighted network ->
// IMM / centrality top-200 -> Fisher's exact enrichment against MSIG
// pathways. Neither the patient/soil measurements nor MSIG can ship in
// this repository, so the pipeline is reproduced end to end on synthetic
// data with planted structure:
//
//   - expression matrices are generated from latent module factors (each
//     module is a co-regulated pathway; members load on the factor);
//   - network inference is Pearson-correlation-based (a stand-in for
//     GENIE3's importance scores: both recover the module topology, which
//     is all the downstream comparison consumes);
//   - the pathway database contains the planted modules (plus noise
//     members and decoy pathways), so enrichment has a ground truth.
package bio

import (
	"fmt"
	"math"
	"sort"

	"influmax/internal/graph"
	"influmax/internal/rng"
	"influmax/internal/stats"
)

// Expression is a feature-by-sample measurement matrix with planted
// module structure.
type Expression struct {
	// Values is indexed [feature][sample].
	Values [][]float64
	// ModuleOf maps each feature to its planted module, or -1 for
	// background features.
	ModuleOf []int
	// Modules is the number of planted modules.
	Modules int
}

// ExprConfig configures synthetic expression generation.
type ExprConfig struct {
	// Features is the number of measured entities (transcripts, proteins,
	// metabolites).
	Features int
	// Samples is the number of experiments.
	Samples int
	// Modules is the number of planted co-regulated modules.
	Modules int
	// ModuleSize is the number of features per module.
	ModuleSize int
	// Signal in (0, 1) is the loading of module members on their latent
	// factor; within-module correlation is Signal^2.
	Signal float64
	// Seed drives generation.
	Seed uint64
}

// SyntheticExpression generates a module-structured expression matrix:
// each module has a latent factor per sample, members observe
// Signal*factor + sqrt(1-Signal^2)*noise, background features observe
// pure noise.
func SyntheticExpression(cfg ExprConfig) *Expression {
	if cfg.Features < 1 || cfg.Samples < 2 {
		panic("bio: need Features >= 1 and Samples >= 2")
	}
	if cfg.Modules*cfg.ModuleSize > cfg.Features {
		panic("bio: modules do not fit into feature count")
	}
	if cfg.Signal <= 0 || cfg.Signal >= 1 {
		panic("bio: Signal out of (0, 1)")
	}
	r := rng.New(rng.NewLCG(cfg.Seed))
	factors := make([][]float64, cfg.Modules)
	for m := range factors {
		factors[m] = make([]float64, cfg.Samples)
		for s := range factors[m] {
			factors[m][s] = r.NormFloat64()
		}
	}
	e := &Expression{
		Values:   make([][]float64, cfg.Features),
		ModuleOf: make([]int, cfg.Features),
		Modules:  cfg.Modules,
	}
	noiseScale := math.Sqrt(1 - cfg.Signal*cfg.Signal)
	for f := 0; f < cfg.Features; f++ {
		e.ModuleOf[f] = -1
		if f < cfg.Modules*cfg.ModuleSize {
			e.ModuleOf[f] = f / cfg.ModuleSize
		}
		row := make([]float64, cfg.Samples)
		for s := range row {
			x := r.NormFloat64()
			if m := e.ModuleOf[f]; m >= 0 {
				x = cfg.Signal*factors[m][s] + noiseScale*x
			}
			row[s] = x
		}
		e.Values[f] = row
	}
	return e
}

// pearson returns the correlation of two equal-length vectors.
func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var sa, sb, saa, sbb, sab float64
	for i := range a {
		sa += a[i]
		sb += b[i]
		saa += a[i] * a[i]
		sbb += b[i] * b[i]
		sab += a[i] * b[i]
	}
	cov := sab - sa*sb/n
	va := saa - sa*sa/n
	vb := sbb - sb*sb/n
	if va <= 0 || vb <= 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// InferNetworkTop builds a co-expression network by global thresholding
// (the GENIE3 stand-in): all feature pairs are ranked by |correlation| and
// the strongest `edges` pairs become edges, weighted by |correlation|, in
// both directions, as co-expression is symmetric evidence. Degree varies
// with how strongly co-regulated a feature is — the structure
// GENIE3-plus-threshold produces, and the one the Section 5 centrality
// comparison presumes. O(Features^2 * Samples).
func InferNetworkTop(e *Expression, edges int) *graph.Graph {
	nf := len(e.Values)
	if edges < 1 {
		panic("bio: edges must be >= 1")
	}
	type pair struct {
		a, b graph.Vertex
		c    float64
	}
	all := make([]pair, 0, nf*(nf-1)/2)
	for a := 0; a < nf; a++ {
		for b := a + 1; b < nf; b++ {
			c := math.Abs(pearson(e.Values[a], e.Values[b]))
			all = append(all, pair{graph.Vertex(a), graph.Vertex(b), c})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		if all[i].a != all[j].a {
			return all[i].a < all[j].a
		}
		return all[i].b < all[j].b
	})
	if edges > len(all) {
		edges = len(all)
	}
	b := graph.NewBuilder(nf)
	for _, p := range all[:edges] {
		b.Add(p.a, p.b, float32(p.c))
		b.Add(p.b, p.a, float32(p.c))
	}
	return b.Build()
}

// Pathway is a named feature set (the MSIG stand-in).
type Pathway struct {
	Name    string
	Members []graph.Vertex
}

// SyntheticPathways builds a pathway database with ground truth: one
// pathway per planted module (its members, with a `noise` fraction
// replaced by random features) plus `decoys` pathways of the same size
// drawn uniformly at random.
func SyntheticPathways(e *Expression, decoys int, noise float64, seed uint64) []Pathway {
	r := rng.New(rng.NewLCG(seed))
	nf := len(e.Values)
	var byModule [][]graph.Vertex
	byModule = make([][]graph.Vertex, e.Modules)
	for f, m := range e.ModuleOf {
		if m >= 0 {
			byModule[m] = append(byModule[m], graph.Vertex(f))
		}
	}
	var out []Pathway
	for m, members := range byModule {
		p := Pathway{Name: fmt.Sprintf("module-%02d", m)}
		for _, f := range members {
			if r.Float64() < noise {
				p.Members = append(p.Members, graph.Vertex(r.Intn(nf)))
			} else {
				p.Members = append(p.Members, f)
			}
		}
		out = append(out, dedup(p))
	}
	size := 0
	if e.Modules > 0 {
		size = len(byModule[0])
	}
	for d := 0; d < decoys; d++ {
		p := Pathway{Name: fmt.Sprintf("decoy-%02d", d)}
		for i := 0; i < size; i++ {
			p.Members = append(p.Members, graph.Vertex(r.Intn(nf)))
		}
		out = append(out, dedup(p))
	}
	return out
}

func dedup(p Pathway) Pathway {
	seen := make(map[graph.Vertex]bool, len(p.Members))
	var out []graph.Vertex
	for _, v := range p.Members {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	p.Members = out
	return p
}

// Enrichment is one pathway's over-representation result for a selected
// feature set.
type Enrichment struct {
	Pathway string
	// Overlap is |selected ∩ pathway|.
	Overlap int
	// P is the one-sided Fisher exact p-value; AdjP its BH adjustment.
	P    float64
	AdjP float64
}

// Enrich applies Fisher's exact test to every pathway against the selected
// set over a universe of `universe` features and returns the results with
// Benjamini-Hochberg adjusted p-values, sorted by ascending AdjP.
func Enrich(selected []graph.Vertex, pathways []Pathway, universe int) []Enrichment {
	sel := make(map[graph.Vertex]bool, len(selected))
	for _, v := range selected {
		sel[v] = true
	}
	out := make([]Enrichment, len(pathways))
	ps := make([]float64, len(pathways))
	for i, p := range pathways {
		overlap := 0
		for _, v := range p.Members {
			if sel[v] {
				overlap++
			}
		}
		pv := stats.FisherExactGreater(int64(universe), int64(len(p.Members)), int64(len(sel)), int64(overlap))
		out[i] = Enrichment{Pathway: p.Name, Overlap: overlap, P: pv}
		ps[i] = pv
	}
	adj := stats.BenjaminiHochberg(ps)
	for i := range out {
		out[i].AdjP = adj[i]
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AdjP != out[j].AdjP {
			return out[i].AdjP < out[j].AdjP
		}
		return out[i].Pathway < out[j].Pathway
	})
	return out
}

// CountSignificant returns how many enrichments have AdjP < alpha — the
// quantity Section 5 reports (372 pathways for IMM vs 614 for degree vs
// 159 for betweenness on the cancer network).
func CountSignificant(res []Enrichment, alpha float64) int {
	count := 0
	for _, e := range res {
		if e.AdjP < alpha {
			count++
		}
	}
	return count
}

// TruePositives counts significant enrichments among ground-truth module
// pathways (names beginning "module-"), the specificity measure behind the
// paper's qualitative claim that IMM's top pathways are the disease-
// relevant ones.
func TruePositives(res []Enrichment, alpha float64) int {
	count := 0
	for _, e := range res {
		if e.AdjP < alpha && len(e.Pathway) >= 7 && e.Pathway[:7] == "module-" {
			count++
		}
	}
	return count
}
