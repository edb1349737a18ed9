package cluster

import (
	"fmt"
	"sync"

	"influmax/internal/diffuse"
	"influmax/internal/dist"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/mpi"
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
	// Shards is the partition width — how many shards to cut theta into.
	Shards int
	// Workers is the total thread budget across the build (<= 0: all
	// cores), split evenly over the shard ranks. Builds run in PerSample
	// mode (the fused kernel under work-stealing), so the shard content
	// does not depend on it.
	Workers int
}

// BuildShards cuts the theta samples for (g, opt) into opt.Shards
// query-ready shards by running the internal/dist pipeline over an
// in-process communicator: shard i is exactly rank i's slice. The same
// (graph, options) always yields the same shards.
func BuildShards(g *graph.Graph, opt BuildOptions) ([]*Shard, error) {
	if opt.Shards < 1 {
		return nil, fmt.Errorf("cluster: shard count %d < 1", opt.Shards)
	}
	threads := opt.Workers / opt.Shards
	if threads < 1 {
		threads = 1
	}
	dopt := dist.Options{
		K: opt.K, Epsilon: opt.Epsilon, Model: opt.Model, Seed: opt.Seed,
		ThreadsPerRank: threads, RNG: imm.PerSample,
		Store: imm.StoreCoded, KeepStore: true,
	}
	comms := mpi.NewLocalCluster(opt.Shards)
	results := make([]*dist.Result, opt.Shards)
	errs := make([]error, opt.Shards)
	var wg sync.WaitGroup
	for r := 0; r < opt.Shards; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer comms[rank].Close()
			results[rank], errs[rank] = dist.Run(comms[rank], g, dopt)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: building shard %d: %w", r, err)
		}
	}
	digest := g.Digest()
	shards := make([]*Shard, opt.Shards)
	for r, res := range results {
		meta := rrr.SnapshotMeta{
			GraphDigest: digest,
			Model:       uint8(opt.Model),
			Epsilon:     opt.Epsilon,
			KMax:        opt.K,
			Seed:        opt.Seed,
			Theta:       res.Theta,
		}
		sh, err := NewShard(meta, res.Coded, res.Index, r, opt.Shards, 0, threads)
		if err != nil {
			return nil, err
		}
		// In PerSample mode a sample's root is its stream's first draw: the
		// root column is a pure function of (seed, id, n).
		sh.Roots = imm.RootsAt(opt.Seed, res.SampleIDs, g.NumVertices(), threads)
		shards[r] = sh
	}
	return shards, nil
}
