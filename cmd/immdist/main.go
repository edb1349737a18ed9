// Command immdist runs distributed IMM (IMMdist, Section 3.2 of the
// paper) in one of two modes:
//
// Local mode — all ranks inside one process over the in-process transport
// (the scaled-down stand-in for a multi-node MPI job):
//
//	immdist -dataset com-Orkut -scale 0.005 -ranks 8 -k 200 -eps 0.13
//
// TCP mode — one process per rank, full-mesh sockets (run the same command
// on every host with its own -rank):
//
//	immdist -dataset com-Orkut -scale 0.005 -k 200 -eps 0.13 \
//	        -rank 0 -addrs host0:9000,host1:9000
//	immdist ... -rank 1 -addrs host0:9000,host1:9000
//
// All ranks print the identical seed set; rank 0 prints the summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"influmax/internal/cli"
	"influmax/internal/diffuse"
	"influmax/internal/dist"
	"influmax/internal/metrics"
	"influmax/internal/mpi"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", "edge-list graph file (all ranks need the same file)")
		dataset     = flag.String("dataset", "com-Orkut", "SNAP analog to generate")
		scale       = flag.Float64("scale", 0.005, "analog scale")
		k           = flag.Int("k", 200, "seed set size")
		eps         = flag.Float64("eps", 0.13, "accuracy parameter")
		modelStr    = flag.String("model", "IC", "diffusion model: IC or LT")
		threads     = flag.Int("threads", 1, "threads per rank (hybrid model)")
		seed        = flag.Uint64("seed", 1, "random seed (must agree across ranks)")
		ranks       = flag.Int("ranks", 4, "local mode: number of in-process ranks")
		rank        = flag.Int("rank", -1, "TCP mode: this process's rank")
		addrsStr    = flag.String("addrs", "", "TCP mode: comma-separated listen addresses, one per rank")
		netTimeout  = flag.Duration("net-timeout", 0, "per-message send/receive deadline; a peer silent past this bound surfaces as a rank failure instead of a hang (0 = wait forever)")
		faultPlan   = flag.String("fault-plan", "", "inject deterministic transport faults for soak testing, e.g. 'seed=7,delay=0.2/5ms,drop=0.1/3,dup=0.05,reorder=0.1,kill=1@500' (see mpi.ParseFaultPlan)")
		metricsJSON = flag.String("metrics-json", "", "write rank 0's merged RunReport (JSON, schema 1) to this file")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file after the run")
	)
	flag.Parse()

	if err := cli.ServePprof("immdist", *pprofAddr); err != nil {
		fatal("%v", err)
	}

	model, err := diffuse.ParseModel(*modelStr)
	if err != nil {
		fatal("%v", err)
	}
	plan, err := mpi.ParseFaultPlan(*faultPlan)
	if err != nil {
		fatal("%v", err)
	}
	if *netTimeout > 0 && plan.RecvTimeout == 0 {
		// The injector's receive timeout doubles as the failure detector
		// for the in-process transport.
		plan.RecvTimeout = *netTimeout
	}
	// With -metrics-json, a SIGINT/SIGTERM mid-run flushes a partial
	// RunReport (configuration only, Interrupted=true) before exiting,
	// so a killed run still leaves an artifact. Armed before the slow
	// phases; disarmed once the merged report is written.
	var disarm func() = func() {}
	if *metricsJSON != "" {
		nranks := *ranks
		if *addrsStr != "" {
			nranks = len(strings.Split(*addrsStr, ","))
		}
		disarm = cli.FlushOnSignal("immdist", *metricsJSON, "IMMdist", func(rep *metrics.RunReport) {
			rep.Model = model.String()
			rep.K, rep.Epsilon, rep.Seed = *k, *eps, *seed
			rep.Ranks, rep.ThreadsPerRank = nranks, *threads
		})
	}

	g, err := cli.LoadGraph(cli.GraphInput{
		Path: *graphPath, Dataset: *dataset, Scale: *scale, Seed: *seed, Weights: "uniform",
	})
	if err != nil {
		fatal("%v", err)
	}
	if model == diffuse.LT {
		g.NormalizeLT()
	}
	opt := dist.Options{K: *k, Epsilon: *eps, Model: model, ThreadsPerRank: *threads, Seed: *seed}

	// writeReport stamps the graph summary on rank 0's merged report and
	// persists it.
	writeReport := func(rep *metrics.RunReport) error {
		disarm() // the run finished; the merged report supersedes the partial one
		rep.Graph = metrics.GraphInfoFor(g.ComputeStats())
		return rep.WriteFile(*metricsJSON)
	}

	// run executes IMMdist on one communicator endpoint. Every rank goes
	// through it (report gathering is a collective); quiet suppresses the
	// per-rank progress line in local mode. Callers wrap the transport
	// with the fault plan and close the wrapped comm when run returns
	// (Close releases the injector's in-flight state).
	run := func(c mpi.Comm, quiet bool) error {
		res, err := dist.Run(c, g, opt)
		if err != nil {
			if res != nil {
				fmt.Fprintf(os.Stderr, "immdist: rank %d degraded (blames rank %d): %d local samples survive, %d/%d seeds selected\n",
					c.Rank(), res.FailedRank, res.LocalSamples, len(res.Seeds), opt.K)
			}
			return err
		}
		if !quiet {
			report(c.Rank(), res)
			reportComm(res.CommStats)
		}
		if *metricsJSON != "" {
			rep, err := dist.Report(c, opt, res)
			if err != nil {
				return err
			}
			if rep != nil {
				return writeReport(rep)
			}
		}
		return nil
	}

	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal("%v", err)
	}

	if *addrsStr != "" {
		// TCP mode.
		addrs := strings.Split(*addrsStr, ",")
		if *rank < 0 || *rank >= len(addrs) {
			fatal("TCP mode needs -rank in [0, %d)", len(addrs))
		}
		inner, err := mpi.DialTCP(mpi.TCPConfig{
			Rank:        *rank,
			Addrs:       addrs,
			SendTimeout: *netTimeout,
			RecvTimeout: *netTimeout,
		})
		if err != nil {
			fatal("%v", err)
		}
		c := mpi.WithFaults(inner, plan)
		defer c.Close()
		if err := run(c, false); err != nil {
			fatal("rank %d: %v", *rank, err)
		}
	} else {
		// Local mode: spin all ranks in-process.
		comms := mpi.NewLocalCluster(*ranks)
		errs := make([]error, *ranks)
		var wg sync.WaitGroup
		for r := 0; r < *ranks; r++ {
			wg.Add(1)
			go func(rk int) {
				defer wg.Done()
				c := mpi.WithFaults(comms[rk], plan)
				defer c.Close()
				errs[rk] = run(c, rk != 0)
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				fatal("rank %d: %v", r, err)
			}
		}
	}

	if err := stopProfiles(); err != nil {
		fatal("%v", err)
	}
}

func report(rank int, res *dist.Result) {
	if rank != 0 {
		fmt.Printf("rank %d done: %d local samples\n", rank, res.LocalSamples)
		return
	}
	fmt.Printf("ranks: %d; theta: %d; samples: %d (this rank: %d); store: %.2f MB\n",
		res.Ranks, res.Theta, res.SamplesGenerated, res.LocalSamples, float64(res.StoreBytes)/(1<<20))
	fmt.Printf("phases: %s (total %v)\n", res.Phases.String(), res.Phases.Total())
	fmt.Printf("estimated spread: %.1f (coverage %.4f)\n", res.EstimatedSpread, res.CoverageFraction)
	fmt.Printf("seeds: %v\n", res.Seeds)
}

// reportComm prints rank 0's nonzero transport/fault counters; silent on
// a clean in-process run (the local transport tracks nothing).
func reportComm(st mpi.CommStats) {
	if m := st.Map(); m != nil {
		fmt.Printf("comm: %v\n", m)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "immdist: "+format+"\n", args...)
	os.Exit(1)
}
