// Command experiments regenerates the paper's tables and figures on the
// synthetic SNAP analogs.
//
//	experiments -scale 0.01 table2          # one experiment to stdout
//	experiments -scale 0.01 -csv fig2       # CSV instead of markdown
//	experiments -scale 0.005 -o results all # everything, one file per experiment
//
// Experiments: fig1 table2 fig2 fig3 fig4 fig5 fig6 fig7 fig8 table3 bio
// validate baselines all.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"influmax/internal/cli"
	"influmax/internal/harness"
	"influmax/internal/metrics"
)

func main() {
	var (
		scale    = flag.Float64("scale", 0.01, "dataset analog scale in (0,1]")
		seed     = flag.Uint64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "max threads (0 = all cores)")
		datasets = flag.String("datasets", "", "comma-separated dataset filter")
		threads  = flag.String("threads", "", "comma-separated thread counts for fig5/fig6")
		ranks    = flag.String("ranks", "", "comma-separated rank counts for fig7/fig8")
		trials   = flag.Int("trials", 2000, "Monte Carlo trials for quality evaluation")
		baseK    = flag.Int("basek", 0, "override k of fig5/fig6/table3 shared-memory rows (0 = paper's 100)")
		distEps  = flag.Float64("disteps", 0, "override eps of fig7/fig8/table3 IMMdist (0 = paper's 0.13)")
		distK    = flag.Int("distk", 0, "override k of fig7/fig8/table3 IMMdist (0 = paper's 200)")
		csv      = flag.Bool("csv", false, "emit CSV instead of markdown")
		outDir   = flag.String("o", "", "write one file per experiment into this directory")

		metricsJSON = flag.String("metrics-json", "", "write every run's RunReport as one JSON array to this file")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the whole regeneration to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file after the run")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		var names []string
		for _, d := range harness.Drivers() {
			names = append(names, d.Name)
		}
		fatal("pass experiment names (%s) or 'all'", strings.Join(names, ", "))
	}

	if err := cli.ServePprof("experiments", *pprofAddr); err != nil {
		fatal("%v", err)
	}

	cfg := harness.Config{
		Scale:   *scale,
		Seed:    *seed,
		Workers: *workers,
		Trials:  *trials,
		BaseK:   *baseK,
		DistEps: *distEps,
		DistK:   *distK,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	var err error
	if cfg.Threads, err = parseInts(*threads); err != nil {
		fatal("-threads: %v", err)
	}
	if cfg.Ranks, err = parseInts(*ranks); err != nil {
		fatal("-ranks: %v", err)
	}
	if *metricsJSON != "" {
		cfg.Reports = metrics.NewReportLog()
	}
	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal("%v", err)
	}

	wanted := map[string]bool{}
	for _, a := range flag.Args() {
		wanted[a] = true
	}
	ran := 0
	for _, d := range harness.Drivers() {
		if !wanted["all"] && !wanted[d.Name] {
			continue
		}
		fmt.Fprintf(os.Stderr, "experiments: running %s (scale %g)...\n", d.Name, cfg.Scale)
		t, err := d.Run(cfg)
		if err != nil {
			fatal("%s: %v", d.Name, err)
		}
		body := t.Markdown()
		ext := "md"
		if *csv {
			body, ext = t.CSV(), "csv"
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal("%v", err)
			}
			path := filepath.Join(*outDir, d.Name+"."+ext)
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				fatal("%v", err)
			}
			fmt.Fprintf(os.Stderr, "experiments: wrote %s\n", path)
		} else {
			fmt.Println(body)
		}
		ran++
	}
	if ran == 0 {
		fatal("no experiment matched %v", flag.Args())
	}
	if err := stopProfiles(); err != nil {
		fatal("%v", err)
	}
	if *metricsJSON != "" {
		if err := cfg.Reports.WriteFile(*metricsJSON); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %d run reports to %s\n", cfg.Reports.Len(), *metricsJSON)
	}
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
