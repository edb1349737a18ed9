// Command benchmark measures what a caller of this repository sees — a
// solve, a served query, a routed query, a delta beside reads — and, in a
// separate traced pass, how each layer contributes. BENCHMARK.json at the
// repository root names its workloads and metrics; README.md in this
// directory explains them.
//
// With -workload it runs that one workload in this process and prints, as
// its last line, one JSON object with the metrics of BENCHMARK.json: the
// end-to-end ones with -trace 0, the per-layer ones with -trace 1. Without
// -workload it runs every workload, both passes, each in a child process
// of its own, -repeat times, and writes the sets to a result file; with
// -compare it holds two such files against each other.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload     = fs.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed         = fs.Uint64("seed", goldenSeed, "workload seed: graph, sampling streams, request mix and delta schedule all derive from it")
		seconds      = fs.Float64("seconds", 10, "length of a workload's timed section")
		trace        = fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics with no probe installed, 1 the per-layer metrics with spans")
		smoke        = fs.Bool("smoke", false, "shrink every workload to the size the smoke test runs")
		clients      = fs.Int("clients", min(2, runtime.NumCPU()), "closed-loop clients; more than the machine has cores is refused")
		repeat       = fs.Int("repeat", 1, "without -workload: how many complete sets to run")
		out          = fs.String("out", "", "without -workload: the result file (default <benchmark dir>/out/result.json)")
		compare      = fs.Bool("compare", false, "compare two result files given as arguments; -compare x.json alone compares x's first two sets")
		updateGolden = fs.Bool("update-golden", false, "without -workload: rewrite golden.json from this run's answers (seed 1, full and smoke sizes)")
		detail       = fs.String("detail", "", "with -workload: also write the metrics with their quartiles to this file")
		printJSON    = fs.Bool("print-benchmark-json", false, "print BENCHMARK.json as the program defines it and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if *printJSON {
		if err := writeBenchmarkJSON(stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *compare {
		code, err := runCompare(fs.Args(), stdout)
		if err != nil {
			return fail(err)
		}
		return code
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if *clients < 1 || *clients > runtime.NumCPU() {
		return fail(fmt.Errorf("-clients %d: this machine has %d cores, and load from more clients than cores measures the generator", *clients, runtime.NumCPU()))
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || *repeat < 1 {
		return fail(fmt.Errorf("-seconds must be positive, -trace 0 or 1, -repeat at least 1"))
	}

	if *workload != "" {
		sp, ok := findSpec(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		c := &runCtx{
			spec: sp, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke,
			workers: engineWorkers(), clients: *clients, outDir: outDir(),
		}
		correct, err := runWorkload(c, stdout, *detail)
		if err != nil {
			return fail(err)
		}
		if !correct {
			return 1
		}
		return 0
	}

	p := parent{
		seed: *seed, seconds: *seconds, smoke: *smoke, clients: *clients,
		repeat: *repeat, out: *out, updateGolden: *updateGolden,
		stdout: stdout, stderr: stderr,
	}
	code, err := p.run()
	if err != nil {
		return fail(err)
	}
	return code
}

// benchDir is the directory this program's source lives in, seen from the
// working directory: the repository root under the committed command, the
// directory itself under go run or go test.
func benchDir() string {
	if dir := os.Getenv("BENCH_DIR"); dir != "" {
		return dir
	}
	if _, err := os.Stat("defs.go"); err == nil {
		return "."
	}
	return "benchmark"
}

// outDir is where a run leaves its files; .gitignore names it.
func outDir() string { return benchDir() + "/out" }
