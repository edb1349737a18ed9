package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A runMeta says where and how a file's numbers were measured; every file
// the benchmark writes carries one.
type runMeta struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	Workers    int     `json:"workers"`
	Smoke      bool    `json:"smoke"`
	Started    string  `json:"started"`
}

func newMeta(seed uint64, seconds float64, clients int, smoke bool) runMeta {
	return runMeta{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: seed, Seconds: seconds, Clients: clients,
		Workers: engineWorkers(), Smoke: smoke, Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// engineWorkers is the Workers every engine call gets.
func engineWorkers() int { return min(runtime.NumCPU(), 4) }

// commit is the checked-out commit: what the parent passed down, else what
// git says, else unknown (the driver's checkout is not a repository).
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	out, err := exec.Command("git", "-C", benchDir(), "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// A resultFile is what a run of every workload leaves: one set per
// -repeat. Claim is null: the benchmark measures, a later change claims.
type resultFile struct {
	Meta  runMeta     `json:"meta"`
	Claim *string     `json:"claim"`
	Sets  []resultSet `json:"sets"`
}

type resultSet map[string]workloadResult

type workloadResult struct {
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Failures  []string        `json:"failures,omitempty"`
	EndToEnd  map[string]stat `json:"end_to_end"`
	PerLayer  map[string]stat `json:"per_layer"`
}

type parent struct {
	seed         uint64
	seconds      float64
	smoke        bool
	clients      int
	repeat       int
	out          string
	updateGolden bool
	stdout       io.Writer
	stderr       io.Writer
}

// child runs one workload pass in a fresh process, so that its peak
// resident set and its GC state are its own, and returns what it measured.
func (p *parent) child(workload string, trace, smoke bool, meta runMeta) (runDetail, error) {
	exe, err := os.Executable()
	if err != nil {
		return runDetail{}, err
	}
	detailPath := filepath.Join(outDir(), fmt.Sprintf("detail-%s-%d.json", workload, os.Getpid()))
	defer os.Remove(detailPath)
	args := []string{
		"-workload", workload, "-seed", strconv.FormatUint(p.seed, 10),
		"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64), "-clients", strconv.Itoa(p.clients),
		"-detail", detailPath,
	}
	if trace {
		args = append(args, "-trace", "1")
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "BENCH_DIR="+benchDir(), "BENCH_COMMIT="+meta.Commit)
	var output bytes.Buffer
	cmd.Stdout, cmd.Stderr = &output, &output
	runErr := cmd.Run()
	data, err := os.ReadFile(detailPath)
	if err != nil {
		// The child died before it could report: show what it said.
		return runDetail{}, fmt.Errorf("%s (trace %v): %v\n%s", workload, trace, runErr, output.Bytes())
	}
	var d runDetail
	if err := json.Unmarshal(data, &d); err != nil {
		return runDetail{}, err
	}
	return d, nil
}

func (p *parent) run() (int, error) {
	if p.updateGolden {
		return 0, p.writeGolden()
	}
	meta := newMeta(p.seed, p.seconds, p.clients, p.smoke)
	file := resultFile{Meta: meta}
	code := 0
	for set := 0; set < p.repeat; set++ {
		rs := make(resultSet)
		for _, sp := range workloads {
			fmt.Fprintf(p.stderr, "set %d/%d: %s\n", set+1, p.repeat, sp.name)
			e2e, err := p.child(sp.name, false, p.smoke, meta)
			if err != nil {
				return 1, err
			}
			layer, err := p.child(sp.name, true, p.smoke, meta)
			if err != nil {
				return 1, err
			}
			wr := workloadResult{
				Correct:   e2e.Correct && layer.Correct,
				Attempted: e2e.Attempted, Failed: e2e.Failed,
				Failures: append(e2e.Failures, layer.Failures...),
				EndToEnd: e2e.Metrics, PerLayer: layer.Metrics,
			}
			if !wr.Correct {
				code = 1
			}
			rs[sp.name] = wr
		}
		file.Sets = append(file.Sets, rs)
		printSet(p.stdout, set, rs)
	}
	out := p.out
	if out == "" {
		out = filepath.Join(outDir(), "result.json")
	}
	if err := writeJSONFile(out, file); err != nil {
		return 1, err
	}
	fmt.Fprintf(p.stdout, "wrote %s; traces are in %s\n", out, outDir())
	if code != 0 {
		fmt.Fprintln(p.stdout, "FAILED: a correctness check did not pass")
	}
	return code, nil
}

// printSet prints every metric of one set by name, with its unit.
func printSet(w io.Writer, set int, rs resultSet) {
	for _, sp := range workloads {
		wr := rs[sp.name]
		fmt.Fprintf(w, "\nset %d  %s  correct=%v attempted=%d failed=%d\n", set+1, sp.name, wr.Correct, wr.Attempted, wr.Failed)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
		for _, group := range []struct {
			defs []metricDef
			got  map[string]stat
		}{{endToEnd, wr.EndToEnd}, {perLayer, wr.PerLayer}} {
			for _, d := range group.defs {
				s := group.got[d.Name]
				fmt.Fprintf(w, "  %-36s %16.6g %-6s q1 %-12.6g q3 %-12.6g n %d\n", d.Name, s.Value, d.Unit, s.Q1, s.Q3, s.N)
			}
		}
	}
}

// writeGolden reruns every workload at the golden seed, at full and at
// smoke size, and pins the answers.
func (p *parent) writeGolden() error {
	p.seed = goldenSeed
	entries := make(map[string]goldenEntry)
	full := p.seconds
	for _, smoke := range []bool{false, true} {
		p.seconds = full
		if smoke {
			p.seconds = smokeSeconds
		}
		meta := newMeta(p.seed, p.seconds, p.clients, smoke)
		for _, sp := range workloads {
			fmt.Fprintf(p.stderr, "golden: %s\n", goldenKey(smoke, sp.name))
			d, err := p.child(sp.name, false, smoke, meta)
			if err != nil {
				return err
			}
			entries[goldenKey(smoke, sp.name)] = d.Answer
		}
	}
	// One entry per line keeps the seed lists readable in a diff.
	keys := make([]string, 0, len(entries))
	for key := range entries {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, key := range keys {
		line, err := json.Marshal(entries[key])
		if err != nil {
			return err
		}
		fmt.Fprintf(&buf, "  %q: %s", key, line)
		if i < len(keys)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	path := filepath.Join(benchDir(), "golden.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(p.stdout, "wrote %s; rebuild to embed it\n", path)
	return nil
}
