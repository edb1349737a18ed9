package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds the committed BENCHMARK.json to what the program
// defines, in both directions, and to the limits of the file's contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&committed); err != nil {
		t.Fatal(err)
	}
	if want := currentBenchmarkJSON(); !reflect.DeepEqual(committed, want) {
		t.Errorf("BENCHMARK.json differs from the program's definitions; regenerate it with -print-benchmark-json\n got %+v\nwant %+v", committed, want)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}

	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(committed.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range committed.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(committed.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	hasSetup := false
	for _, m := range committed.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v: bad unit, direction or bound", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if n := len(committed.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range committed.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v: bad unit or direction", m)
		}
	}
	if committed.RunSeconds < 1 || committed.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1, 60]", committed.RunSeconds)
	}
}

// TestSmoke runs every workload, both passes, at smoke size and checks the
// result line: exactly the keys of the contract, every metric BENCHMARK.json
// names and no other, each once, with its unit, finite, and for the
// end-to-end ones not zero. It asserts nothing about how long anything took.
func TestSmoke(t *testing.T) {
	for _, sp := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(sp.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := realMain([]string{"-workload", sp.name, "-smoke", "-seconds", strconv.FormatFloat(smokeSeconds, 'g', -1, 64), "-trace", trace, "-seed", "1"}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit code %d\n%s%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
				}
				for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
					if _, ok := raw[key]; !ok {
						t.Errorf("result lacks %q", key)
					}
				}
				if len(raw) != 4 {
					t.Errorf("result has %d keys, want exactly 4", len(raw))
				}
				var res childResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s is not reported", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s is %v", d.Name, m.Value)
					case trace == "0" && m.Value == 0:
						t.Errorf("end-to-end metric %s is 0", d.Name)
					}
				}
				if trace == "1" {
					if _, err := os.Stat(filepath.Join(outDir(), "trace-"+sp.name+".json")); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
			})
		}
	}
}

// TestGoldenCoversEveryWorkload keeps golden.json and the workload list
// together: an entry per workload and size, and no entry for anything else.
func TestGoldenCoversEveryWorkload(t *testing.T) {
	entries, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	for _, sp := range workloads {
		for _, smoke := range []bool{false, true} {
			want[goldenKey(smoke, sp.name)] = true
		}
	}
	for key, e := range entries {
		if !want[key] {
			t.Errorf("golden.json has an entry %q for no workload", key)
		}
		if len(e.Seeds) == 0 || e.CoverageFraction <= 0 || e.Theta <= 0 {
			t.Errorf("golden.json entry %q is empty", key)
		}
		delete(want, key)
	}
	for key := range want {
		t.Errorf("golden.json has no entry %q; run -update-golden", key)
	}
}

func TestClientsBeyondCoresRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-workload", "solve-ic", "-smoke", "-clients", "4096"}, &stdout, &stderr); code == 0 {
		t.Fatal("-clients 4096 was accepted")
	}
	if !strings.Contains(stderr.String(), "cores") {
		t.Errorf("refusal does not say why: %s", stderr.String())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestBlockStats(t *testing.T) {
	lat := make([]float64, 250)
	for i := range lat {
		lat[i] = float64(i%100 + 1)
	}
	p50s, tails := blockStats(lat, 100, 90)
	if len(p50s) != 2 || p50s[0] != 50 || tails[0] != 90 {
		t.Errorf("blockStats = %v, %v; want two blocks with median 50 and p90 90", p50s, tails)
	}
	if p50s, _ := blockStats(lat[:30], 100, 90); len(p50s) != 1 {
		t.Errorf("a run shorter than one block gave %d blocks, want 1", len(p50s))
	}
}

// TestCompareVerdicts runs -compare over two synthetic result files.
func TestCompareVerdicts(t *testing.T) {
	set := func(p50, setup float64, theta float64) resultSet {
		rs := make(resultSet)
		for _, sp := range workloads {
			e2e := make(map[string]stat)
			for _, d := range endToEnd {
				e2e[d.Name] = exact(100, d.Unit)
			}
			e2e["op_p50_ms"] = exact(p50, "ms")
			e2e["setup_s"] = stat{Value: setup, Unit: "s", Q1: setup * 0.5, Q3: setup * 1.5, N: 3} // spread 1/sqrt(3) > bound
			layer := map[string]stat{"imm.theta": exact(theta, "count")}
			rs[sp.name] = workloadResult{Correct: true, EndToEnd: e2e, PerLayer: layer}
		}
		return rs
	}
	dir := t.TempDir()
	write := func(name string, rs resultSet) string {
		path := filepath.Join(dir, name)
		if err := writeJSONFile(path, resultFile{Sets: []resultSet{rs}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", set(10, 1, 500))
	b := write("b.json", set(13, 1, 501))
	var out bytes.Buffer
	code, err := runCompare([]string{a, b}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("compare returned %d for a 30%% slower op_p50_ms, want 1", code)
	}
	text := out.String()
	for _, want := range []string{"regressed", "unresolved", "ok", "DIFFERS", "identical"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output has no %q row:\n%s", want, text)
		}
	}
	out.Reset()
	if code, err := runCompare([]string{a, a}, &out); err != nil || code != 0 {
		t.Errorf("comparing a file with itself returned %d, %v", code, err)
	}
}
