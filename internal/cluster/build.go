package cluster

import (
	"fmt"

	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/par"
	"influmax/internal/rrr"
)

// BuildOptions configures a shard-partition build.
type BuildOptions struct {
	// K is the largest seed-set size the fleet will serve (kMax).
	K int
	// Epsilon is the accuracy parameter theta is sized for.
	Epsilon float64
	// Model is the diffusion model.
	Model diffuse.Model
	// Seed feeds the per-sample pseudorandom streams.
	Seed uint64
	// Shards is the partition width — how many id ranges to cut the
	// sample set into.
	Shards int
	// Workers is the thread budget of the build (<= 0: all cores); the
	// whole budget goes to the one sample draw, then to each shard's
	// transcode and index. The draw runs in PerSample mode (the fused
	// kernel under work-stealing), so the shard content does not depend
	// on it.
	Workers int
}

// BuildShards draws the sample set for (g, opt) once, with imm.RunCollect
// in PerSample mode, and cuts it into opt.Shards query-ready shards: shard
// r holds the contiguous id range par.Interval(N, Shards, r) of the N
// drawn samples, coded under its own frequency relabeling. Sample i is a
// pure function of (seed, i), so the shards' union is the single-process
// sample set, and the same (graph, options) always yields the same shards.
func BuildShards(g *graph.Graph, opt BuildOptions) ([]*Shard, error) {
	if opt.Shards < 1 {
		return nil, fmt.Errorf("cluster: shard count %d < 1", opt.Shards)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	res, col, _, err := imm.RunCollect(g, imm.Options{
		K: opt.K, Epsilon: opt.Epsilon, Model: opt.Model, Seed: opt.Seed,
		Workers: workers, RNG: imm.PerSample,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: drawing the fleet's samples: %w", err)
	}
	meta := rrr.SnapshotMeta{
		GraphDigest: g.Digest(),
		Model:       uint8(opt.Model),
		Epsilon:     opt.Epsilon,
		KMax:        opt.K,
		Seed:        opt.Seed,
		Theta:       res.Theta,
	}
	shards := make([]*Shard, opt.Shards)
	for r := range shards {
		lo, hi := par.Interval(col.Count(), opt.Shards, r)
		part := col.Range(lo, hi)
		coded := rrr.FromCollection(part, rrr.NewRelabeling(rrr.IncidenceOf(part, workers)))
		sh, err := NewShard(meta, coded, nil, r, opt.Shards, uint64(lo), 0, workers)
		if err != nil {
			return nil, err
		}
		shards[r] = sh
	}
	return shards, nil
}
