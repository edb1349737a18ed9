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

// BuildShards draws the sample set for (g, opt) once, with imm.Draw in
// PerSample mode, and cuts it into opt.Shards query-ready shards: shard r
// holds the contiguous id range par.Interval(N, Shards, r) of the N drawn
// samples, coded under its own frequency relabeling. Sample i is a pure
// function of (seed, i), so the shards' union is the single-process
// sample set, and the same (graph, options) always yields the same shards.
func BuildShards(g *graph.Graph, opt BuildOptions) ([]*Shard, error) {
	if opt.Shards < 1 {
		return nil, fmt.Errorf("cluster: shard count %d < 1", opt.Shards)
	}
	cut, _, err := draw(g, opt)
	if err != nil {
		return nil, err
	}
	shards := make([]*Shard, opt.Shards)
	for r := range shards {
		if shards[r], err = cut(r); err != nil {
			return nil, err
		}
	}
	return shards, nil
}

// BuildShard builds shard r of BuildShards(g, opt) alone, byte-identical:
// the same draw, with only range r coded and cut. It also returns the
// draw's sample count N; the shard holds ids par.Interval(N, Shards, r).
func BuildShard(g *graph.Graph, opt BuildOptions, r int) (*Shard, int, error) {
	if r < 0 || r >= opt.Shards {
		return nil, 0, fmt.Errorf("cluster: shard index %d out of [0, %d)", r, opt.Shards)
	}
	cut, n, err := draw(g, opt)
	if err != nil {
		return nil, 0, err
	}
	sh, err := cut(r)
	return sh, n, err
}

// draw runs the fleet's one sample draw and returns its sample count N and
// cut, which codes shard r (ids par.Interval(N, Shards, r)) under its own
// frequency relabeling and cuts its index from the draw's.
func draw(g *graph.Graph, opt BuildOptions) (cut func(r int) (*Shard, error), n int, err error) {
	res, col, idx, err := imm.Draw(g, imm.Options{
		K: opt.K, Epsilon: opt.Epsilon, Model: opt.Model, Seed: opt.Seed,
		Workers: opt.Workers, RNG: imm.PerSample,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: drawing the fleet's samples: %w", err)
	}
	meta := rrr.SnapshotMeta{
		GraphDigest: g.Digest(),
		Model:       uint8(opt.Model),
		Epsilon:     opt.Epsilon,
		KMax:        opt.K,
		Seed:        opt.Seed,
		Theta:       res.Theta,
	}
	return func(r int) (*Shard, error) {
		lo, hi := par.Interval(col.Count(), opt.Shards, r)
		coded := imm.Transcode(col.Range(lo, hi), imm.StoreCoded, res.Workers)
		return newShard(meta, coded, idx.Range(lo, hi, res.Workers), r, opt.Shards, uint64(lo), 0, res.Workers)
	}, col.Count(), nil
}
