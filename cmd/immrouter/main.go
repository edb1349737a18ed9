// Command immrouter fronts a fleet of shard-mode immserve replicas: it
// probes each shard listed in -shards, validates that they form one
// coherent fleet (same graph digest, sampling configuration, and epoch),
// and answers POST /v1/seeds by running the sample-partitioned greedy
// selection across all of them — the distributed protocol of internal/dist
// re-hosted over HTTP. Seeds are byte-identical to a single-process
// immserve at the same configuration.
//
//	immrouter -shards http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080 \
//	    -addr 127.0.0.1:8090
//
// A replica that stops answering within -net-timeout is dropped mid-query:
// the router fails over to the surviving shards, finishes the selection,
// and marks the response degraded with the failed shard listed in
// failedShards. Failed shards are re-probed on later queries and rejoin
// once they answer with the same identity (e.g. after a warm restart from
// their shard snapshot). {"k":N,"stream":true} streams one NDJSON line per
// seed as the rounds complete, then a summary line. The request may also
// carry the query-diversity fields of DESIGN.md §17 — costs/budget
// (cost-aware greedy), audience (targeted influence; needs header-v2
// shard snapshots or fresh builds) and blocked (competitive selection) —
// and POST /v1/spread estimates a caller-supplied seed set's influence
// across the fleet; both routed byte-identically to a single process
// holding all theta samples. GET /healthz reports
// ok or degraded with the live shard count; GET /v1/metrics exposes the
// router counters. SIGINT/SIGTERM drains in-flight queries (bounded by
// -drain-timeout) and, with -metrics-json, writes a RunReport before exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"influmax/internal/cluster"
	"influmax/internal/metrics"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8090", "listen address")
		shardsFlag   = flag.String("shards", "", "comma-separated shard base URLs, in shard-index order")
		netTimeout   = flag.Duration("net-timeout", 2*time.Second, "per-operation shard deadline; bounds failure detection")
		concurrency  = flag.Int("concurrency", 4, "routed queries executing at once")
		queue        = flag.Int("queue", 16, "queries waiting for a slot before 429s start")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace for in-flight queries on shutdown")
		metricsJSON  = flag.String("metrics-json", "", "write the router RunReport here on exit")
	)
	flag.Parse()

	if *shardsFlag == "" {
		fatal("pass -shards url,url,... (one base URL per shard replica)")
	}
	var conns []cluster.Conn
	for i, base := range strings.Split(*shardsFlag, ",") {
		base = strings.TrimSpace(base)
		if base == "" {
			fatal("-shards entry %d is empty", i)
		}
		conns = append(conns, cluster.NewHTTPConn(base, i, *netTimeout))
	}

	reg := metrics.NewRegistry()
	rt, err := cluster.NewRouter(conns, reg)
	if err != nil {
		fatal("probing fleet: %v", err)
	}
	fleet := rt.Fleet()
	fmt.Fprintf(os.Stderr, "immrouter: fleet of %d shards: graph %016x, model %d, eps %g, k-max %d, theta %d\n",
		rt.Shards(), fleet.GraphDigest, fleet.Model, fleet.Epsilon, fleet.KMax, fleet.Theta)
	if failed := rt.FailedShards(); len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "immrouter: shards %v did not answer the startup probe; serving degraded until they rejoin\n", failed)
	}

	srv := cluster.NewRouterServer(rt, cluster.RouterServerConfig{
		MaxConcurrent: *concurrency, MaxQueue: *queue, RetryAfter: *retryAfter,
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	bound, err := srv.Start(*addr)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "immrouter: listening on http://%s\n", bound)

	<-sig
	fmt.Fprintln(os.Stderr, "immrouter: draining")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fatal("drain: %v", err)
	}
	if *metricsJSON != "" {
		raw, err := json.MarshalIndent(srv.Report(), "", "  ")
		if err != nil {
			fatal("encoding report: %v", err)
		}
		if err := os.WriteFile(*metricsJSON, append(raw, '\n'), 0o644); err != nil {
			fatal("writing report: %v", err)
		}
		fmt.Fprintf(os.Stderr, "immrouter: report written to %s\n", *metricsJSON)
	}
	fmt.Fprintln(os.Stderr, "immrouter: drained, bye")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "immrouter: "+format+"\n", args...)
	os.Exit(1)
}
