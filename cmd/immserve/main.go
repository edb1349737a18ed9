// Command immserve serves influence-maximization queries from a resident
// RRR sketch: it loads (or generates) a graph, prepares a sketch sized for
// -k-max and -eps — sampling it, or warm-starting from a -snapshot written
// by a previous run — and then answers POST /v1/seeds for any k <= k-max
// in selection time only, no resampling.
//
//	immserve -dataset soc-LiveJournal -scale 0.01 -k-max 100 -eps 0.5 \
//	    -snapshot lj.snap -addr 127.0.0.1:8080
//
// Endpoints: POST /v1/seeds ({"k": 10}, optionally with costs/budget/
// audience/blocked for the query-diversity modes of DESIGN.md §17), POST
// /v1/spread ({"seeds": [...]}; seed-set spread estimation), GET /healthz,
// GET /v1/metrics, and /debug/pprof/ with -pprof. The -audience/-budget/
// -blocked flags set fleet-wide defaults for requests that leave those
// fields absent. With -dynamic, POST /v1/graph/delta
// accepts edge mutation batches ({"ops":[{"op":"insert","src":0,"dst":1,
// "w":0.2}]}) and the sketch is maintained incrementally; on shutdown the
// mutated state (samples + replayable delta log) is persisted back to
// -snapshot for a warm restart. With -shard-index/-shard-count the replica
// joins a cluster fleet instead: it serves one slice of the samples
// through the shard API (POST /v1/shard/op, GET /v1/shard/info, GET
// /v1/snapshot) for an immrouter to query, and rejects direct seed
// queries; -shard-from bootstraps the slice from a running peer. See
// DESIGN.md §16. Saturation (past -concurrency running
// plus -queue waiting) is answered 429 + Retry-After; SIGINT/SIGTERM
// drains in-flight queries (bounded by -drain-timeout) before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"influmax/internal/cli"
	"influmax/internal/cluster"
	"influmax/internal/diffuse"
	"influmax/internal/graph"
	"influmax/internal/imm"
	"influmax/internal/metrics"
	"influmax/internal/server"
)

func main() {
	var (
		graphPath    = flag.String("graph", "", "edge-list or binary graph file")
		binary       = flag.Bool("bin", false, "input file is binary (graphgen -format bin)")
		dataset      = flag.String("dataset", "", "generate a SNAP analog instead of reading a file")
		scale        = flag.Float64("scale", 0.01, "analog scale")
		weights      = flag.String("weights", "uniform", "weight scheme when generating: uniform, wc, const:<p>, none")
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		kMax         = flag.Int("k-max", 100, "largest seed-set size the sketch serves")
		eps          = flag.Float64("eps", 0.5, "accuracy parameter the sketch is sized for")
		modelStr     = flag.String("model", "IC", "diffusion model: IC or LT")
		seed         = flag.Uint64("seed", 1, "random seed")
		workers      = flag.Int("workers", 0, "threads for sampling and selection (0 = all cores)")
		storeStr     = flag.String("store", "flat", "resident RRR store, byte-coded either way: flat (identity labels) or coded (frequency relabeling); same seeds")
		concurrency  = flag.Int("concurrency", 2, "queries executing at once")
		queue        = flag.Int("queue", 16, "queries waiting for a slot before 429s start")
		timeout      = flag.Duration("timeout", 60*time.Second, "per-query budget (queue wait + sketch build)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace for in-flight queries on shutdown")
		snapshot     = flag.String("snapshot", "", "sketch snapshot path: loaded if present, written after sampling otherwise")
		dynamic      = flag.Bool("dynamic", false, "dynamic-graph mode: accept edge mutations at POST /v1/graph/delta, maintain the sketch incrementally")
		shardIndex   = flag.Int("shard-index", -1, "cluster shard mode: this replica's shard index in [0, shard-count)")
		shardCount   = flag.Int("shard-count", 0, "cluster shard mode: fleet width; 0 disables shard mode")
		shardFrom    = flag.String("shard-from", "", "cluster shard mode: peer base URL to bootstrap the shard snapshot from")
		policyStr    = flag.String("weight-policy", "explicit", "dynamic mode: weight re-derivation after a mutation batch: explicit or wc")
		audience     = flag.String("audience", "", "comma-separated vertex ids: default audience for /v1/seeds requests that do not name one (targeted query mode)")
		budget       = flag.Float64("budget", 0, "default total budget with unit costs for /v1/seeds requests that do not name one (budgeted query mode)")
		blocked      = flag.String("blocked", "", "comma-separated vertex ids: default rival seed set for /v1/seeds requests that do not name one (competitive query mode)")
		pprofOn      = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	model, err := diffuse.ParseModel(*modelStr)
	if err != nil {
		fatal("%v", err)
	}
	store, err := imm.ParseStoreKind(*storeStr)
	if err != nil {
		fatal("%v", err)
	}
	policy, err := imm.ParseWeightPolicy(*policyStr)
	if err != nil {
		fatal("%v", err)
	}
	g, err := cli.LoadGraph(cli.GraphInput{
		Path: *graphPath, Binary: *binary, Dataset: *dataset, Scale: *scale, Seed: *seed, Weights: *weights,
	})
	if err != nil {
		fatal("%v", err)
	}
	if model == diffuse.LT {
		g.NormalizeLT()
	}
	defAudience, err := cli.ParseVertexList(*audience, g.NumVertices())
	if err != nil {
		fatal("-audience: %v", err)
	}
	defBlocked, err := cli.ParseVertexList(*blocked, g.NumVertices())
	if err != nil {
		fatal("-blocked: %v", err)
	}
	st := g.ComputeStats()
	fmt.Fprintf(os.Stderr, "immserve: graph: %d vertices, %d edges, avg degree %.2f\n",
		st.Vertices, st.Edges, st.AvgDegree)

	key := server.SketchKey{
		GraphDigest: g.Digest(), Model: model, Epsilon: *eps, KMax: *kMax, Seed: *seed,
	}
	reg := metrics.NewRegistry()
	var sketch *server.Sketch
	var shard *cluster.Shard
	if *shardCount > 0 {
		// Cluster shard mode: this replica serves one slice of the fleet's
		// samples through the shard API and refuses seed queries (POST
		// /v1/seeds goes to the immrouter fronting the fleet).
		if *dynamic {
			fatal("-shard-count and -dynamic are mutually exclusive: shards serve static sketches")
		}
		if *shardIndex < 0 || *shardIndex >= *shardCount {
			fatal("-shard-index %d out of range for -shard-count %d", *shardIndex, *shardCount)
		}
		shard, err = prepareShard(g, key, *shardIndex, *shardCount, *snapshot, *shardFrom, *workers)
		if err != nil {
			fatal("%v", err)
		}
	} else {
		sketch, err = prepareSketch(g, key, *snapshot, *workers, store, reg, *dynamic)
	}
	if err != nil {
		fatal("%v", err)
	}

	srv, err := server.New(server.Config{
		Graph: g, Model: model, Epsilon: *eps, KMax: *kMax, Seed: *seed,
		Workers: *workers, Store: store, MaxConcurrent: *concurrency, MaxQueue: *queue,
		QueryTimeout: *timeout, Metrics: reg, EnablePprof: *pprofOn,
		Sketch: sketch, Dynamic: *dynamic, WeightPolicy: policy,
		DefaultBudget: *budget, DefaultAudience: defAudience, DefaultBlocked: defBlocked,
		ClusterShard: shard,
	})
	if err != nil {
		fatal("%v", err)
	}
	if sketch != nil && sketch.Source == "snapshot" {
		if *dynamic {
			fmt.Fprintf(os.Stderr, "immserve: dynamic sketch warm-started from %s (theta %d, epoch %d)\n",
				*snapshot, sketch.Theta, sketch.DeltaEpoch)
		} else {
			fmt.Fprintf(os.Stderr, "immserve: sketch warm-started from %s (theta %d, store %s)\n", *snapshot, sketch.Theta, sketch.Store())
		}
	}
	// Install the drain handler before announcing the address: a client
	// that sees "listening" may immediately SIGTERM us (the e2e tests
	// do), and an uninstalled handler means death instead of a drain.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	bound, err := srv.Start(*addr)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "immserve: listening on http://%s\n", bound)

	<-sig
	fmt.Fprintln(os.Stderr, "immserve: draining")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fatal("drain: %v", err)
	}
	if *dynamic && *snapshot != "" {
		sk := srv.ServingSketch()
		if err := sk.Save(*snapshot); err != nil {
			fatal("persisting dynamic sketch: %v", err)
		}
		fmt.Fprintf(os.Stderr, "immserve: dynamic sketch persisted to %s (epoch %d)\n", *snapshot, sk.DeltaEpoch)
	}
	fmt.Fprintln(os.Stderr, "immserve: drained, bye")
}

// prepareShard resolves this replica's sample shard: a shard snapshot at
// path warm-starts it; otherwise a running peer (-shard-from) streams its
// snapshot over; otherwise the fleet's samples are drawn locally and only
// this replica's id range is coded and indexed. Whatever the source, the
// shard's identity must match the flags — a slice from the wrong fleet
// would silently poison routed selections.
func prepareShard(g *graph.Graph, key server.SketchKey, idx, count int, path, from string, workers int) (*cluster.Shard, error) {
	load := func(sh *cluster.Shard, src string) (*cluster.Shard, error) {
		info := sh.Info()
		if info.ShardIdx != idx || info.ShardCount != count {
			return nil, fmt.Errorf("%s holds shard %d of %d, flags say %d of %d",
				src, info.ShardIdx, info.ShardCount, idx, count)
		}
		if info.GraphDigest != key.GraphDigest || diffuse.Model(info.Model) != key.Model ||
			info.Epsilon != key.Epsilon || info.KMax != key.KMax || info.Seed != key.Seed {
			return nil, fmt.Errorf("%s was sampled with a different configuration than the flags; delete it or match the flags", src)
		}
		fmt.Fprintf(os.Stderr, "immserve: shard %d/%d warm-started from %s (%d samples, epoch %d)\n",
			idx, count, src, info.Samples, info.Epoch)
		return sh, nil
	}
	if path != "" {
		if _, err := os.Stat(path); err == nil {
			sh, err := cluster.LoadShardSnapshotFile(path, 0, workers)
			if err != nil {
				return nil, err
			}
			return load(sh, path)
		}
	}
	var sh *cluster.Shard
	var err error
	if from != "" {
		if sh, err = cluster.FetchShardSnapshot(from, nil, 0, workers); err != nil {
			return nil, fmt.Errorf("bootstrapping from peer %s: %w", from, err)
		}
		if sh, err = load(sh, from); err != nil {
			return nil, err
		}
	} else {
		start := time.Now()
		var fleet int
		if sh, fleet, err = cluster.BuildShard(g, cluster.BuildOptions{
			K: key.KMax, Epsilon: key.Epsilon, Model: key.Model, Seed: key.Seed,
			Shards: count, Workers: workers,
		}, idx); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "immserve: shard %d/%d sampled in %v (ids [%d, %d) of %d fleet samples)\n",
			idx, count, time.Since(start).Round(time.Millisecond), sh.First, sh.First+uint64(sh.Col.Count()), fleet)
	}
	if path != "" {
		if err := cluster.SaveShardSnapshotFile(path, sh); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "immserve: shard snapshot written to %s\n", path)
	}
	return sh, nil
}

// prepareSketch resolves the resident sketch: a snapshot at path of this
// graph warm-starts the server, once server.New has checked its key
// against the flags' (transcoded into the -store kind if it was
// written with the other one; in dynamic mode it restores the mutated
// state, whose delta log New replays over the base graph). Otherwise a
// static sketch is sampled and — when a path was given — persisted for the
// next start. Dynamic mode returns nil instead: New samples the initial
// sketch itself, and since it keeps changing it is persisted after the
// drain.
func prepareSketch(g *graph.Graph, key server.SketchKey, path string, workers int, store imm.StoreKind, reg *metrics.Registry, dynamic bool) (*server.Sketch, error) {
	if path != "" {
		if _, err := os.Stat(path); err == nil {
			return server.LoadSketch(path, g, workers, store, 0)
		}
	}
	if dynamic {
		return nil, nil
	}
	start := time.Now()
	s, err := server.BuildSketch(g, key, workers, store, reg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "immserve: sketch sampled in %v (theta %d)\n",
		time.Since(start).Round(time.Millisecond), s.Theta)
	if path != "" {
		if err := s.Save(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "immserve: snapshot written to %s\n", path)
	}
	return s, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "immserve: "+format+"\n", args...)
	os.Exit(1)
}
