package influmax_test

// End-to-end tests of the command-line tools: each binary is compiled once
// into a scratch directory and driven the way a user would drive it.

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"influmax"
	"influmax/internal/metrics"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// binPath compiles (once) and returns the path of the named cmd binary.
func binPath(t *testing.T, name string) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "influmax-bin")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", buildDir+string(filepath.Separator), "./cmd/...")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = err
			buildDir = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building cmds: %v (%s)", buildErr, buildDir)
	}
	return filepath.Join(buildDir, name)
}

func runCmd(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(binPath(t, name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func runCmdExpectError(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(binPath(t, name), args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v unexpectedly succeeded:\n%s", name, args, out)
	}
	return string(out)
}

func TestCmdGraphgenAndIMM(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.txt")
	out := runCmd(t, "graphgen", "-dataset", "cit-HepTh", "-scale", "0.01", "-o", gpath)
	if !strings.Contains(out, "vertices") {
		t.Fatalf("graphgen output: %s", out)
	}
	out = runCmd(t, "imm", "-graph", gpath, "-k", "5", "-eps", "0.5", "-verify", "500")
	for _, want := range []string{"theta:", "seeds (selection order):", "verified spread:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("imm output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdGraphgenBinaryFormat(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.bin")
	runCmd(t, "graphgen", "-family", "er", "-n", "200", "-m", "1000", "-format", "bin", "-o", gpath)
	out := runCmd(t, "imm", "-graph", gpath, "-bin", "-k", "3", "-eps", "0.5")
	if !strings.Contains(out, "estimated spread:") {
		t.Fatalf("binary graph not consumed:\n%s", out)
	}
}

func TestCmdGraphgenList(t *testing.T) {
	out := runCmd(t, "graphgen", "-list")
	for _, name := range []string{"cit-HepTh", "com-Orkut"} {
		if !strings.Contains(out, name) {
			t.Fatalf("-list missing %s:\n%s", name, out)
		}
	}
}

func TestCmdGraphgenErrors(t *testing.T) {
	runCmdExpectError(t, "graphgen")                                     // no source
	runCmdExpectError(t, "graphgen", "-family", "bogus")                 // bad family
	runCmdExpectError(t, "graphgen", "-dataset", "x", "-scale", "0.01")  // unknown dataset (panic -> non-zero)
	runCmdExpectError(t, "graphgen", "-family", "er", "-weights", "wat") // bad weights
}

// TestCmdBadGraphInput drives every binary that reads a graph with a bad
// dataset name, scale or weight scheme: each must refuse it with one
// "<prog>: ..." line and exit status 1, never panic, and never run on a
// NaN graph or NaN weights.
func TestCmdBadGraphInput(t *testing.T) {
	// Flags that keep a wrongly accepted input quick to finish.
	fast := map[string][]string{
		"imm":      {"-k", "2", "-eps", "0.5"},
		"immserve": {"-k-max", "2", "-eps", "0.5", "-addr", "127.0.0.1:0"},
		"immdist":  {"-ranks", "2", "-k", "2", "-eps", "0.5"},
		"spread":   {"-seeds", "0", "-trials", "10"},
		"graphgen": {"-o", filepath.Join(t.TempDir(), "g.txt")},
	}
	bad := [][]string{
		{"-dataset", "nosuch"},
		{"-dataset", "cit-HepTh", "-scale", "NaN"},
		{"-dataset", "cit-HepTh", "-scale", "0"},
		{"-dataset", "cit-HepTh", "-scale", "2"},
	}
	var cases [][]string
	for _, prog := range []string{"imm", "immserve", "immdist", "spread", "graphgen"} {
		for _, args := range bad {
			cases = append(cases, append([]string{prog}, args...))
		}
	}
	for _, prog := range []string{"imm", "immserve", "graphgen"} { // the binaries with -weights
		for _, w := range []string{"const:NaN", "const:7", "const:-0.1", "const:0.1x", "bogus"} {
			cases = append(cases, []string{prog, "-dataset", "cit-HepTh", "-scale", "0.002", "-weights", w})
		}
	}
	for _, fam := range [][]string{ // graphgen's parametric families
		{"-family", "er", "-n", "1"},
		{"-family", "er", "-m", "-1"},
		{"-family", "ba", "-n", "8", "-mper", "8"},
		{"-family", "ba", "-mper", "0"},
		{"-family", "ws", "-n", "9", "-mper", "8"},
		{"-family", "ws", "-mper", "0"},
		{"-family", "ws", "-beta", "1.5"},
		{"-family", "ws", "-beta", "NaN"},
		{"-family", "rmat", "-n", "1"},
		{"-family", "rmat", "-m", "-1"},
		{"-family", "rmat", "-n", "4", "-m", "13"}, // more distinct edges than 4 vertices hold
		{"-family", "bogus"},
	} {
		cases = append(cases, append([]string{"graphgen"}, fam...))
	}
	for _, c := range cases {
		prog, args := c[0], append(c[1:], fast[c[0]]...)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, binPath(t, prog), args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		msg := stderr.String()
		if code := cmd.ProcessState.ExitCode(); code != 1 {
			t.Errorf("%s %v: exit %d (%v), want 1\n%s", prog, args, code, err, msg)
			continue
		}
		if strings.Contains(msg, "panic:") || strings.Contains(msg, "goroutine") {
			t.Errorf("%s %v panicked:\n%s", prog, args, msg)
		} else if !strings.HasPrefix(msg, prog+": ") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%s %v: want one %q line on stderr, got:\n%s", prog, args, prog+": ", msg)
		}
	}
}

func TestCmdSpread(t *testing.T) {
	out := runCmd(t, "spread", "-dataset", "cit-HepTh", "-scale", "0.01", "-seeds", "0,1,2", "-trials", "500")
	if !strings.Contains(out, "expected spread") {
		t.Fatalf("spread output:\n%s", out)
	}
	runCmdExpectError(t, "spread", "-dataset", "cit-HepTh", "-scale", "0.01") // missing seeds
	runCmdExpectError(t, "spread", "-dataset", "cit-HepTh", "-scale", "0.01", "-seeds", "999999999")
}

func TestCmdIMMModels(t *testing.T) {
	for _, model := range []string{"IC", "LT"} {
		out := runCmd(t, "imm", "-dataset", "soc-Epinions1", "-scale", "0.005", "-k", "4", "-eps", "0.5", "-model", model)
		if !strings.Contains(out, "seeds (selection order):") {
			t.Fatalf("model %s failed:\n%s", model, out)
		}
	}
	runCmdExpectError(t, "imm", "-dataset", "cit-HepTh", "-model", "XX")
	runCmdExpectError(t, "imm") // no input
}

func TestCmdIMMJSONOutput(t *testing.T) {
	out := runCmd(t, "imm", "-dataset", "cit-HepTh", "-scale", "0.005", "-k", "3", "-eps", "0.5", "-json", "-verify", "200")
	for _, want := range []string{`"seeds"`, `"theta"`, `"estimatedSpread"`, `"verified"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("json output missing %s:\n%s", want, out)
		}
	}
	if strings.Contains(out, "seeds (selection order)") {
		t.Fatal("human output leaked into -json mode")
	}
}

func TestCmdIMMBaselineFlag(t *testing.T) {
	out := runCmd(t, "imm", "-dataset", "cit-HepTh", "-scale", "0.005", "-k", "3", "-eps", "0.5", "-baseline")
	if !strings.Contains(out, "estimated spread:") {
		t.Fatalf("baseline run failed:\n%s", out)
	}
}

// TestCmdIMMQueryModeCoverage pins imm's query mode to the plain run's
// coverage: a budget that admits all k seeds picks the same seeds, so the
// coverage over the sketch's samples must match too. The configuration is
// one where the search overshoots theta (10,566 samples for theta 8,945),
// so a coverage divided by theta instead of the sample count shows.
func TestCmdIMMQueryModeCoverage(t *testing.T) {
	type result struct {
		Theta            int64   `json:"theta"`
		SamplesGenerated int     `json:"samplesGenerated"`
		Seeds            []int   `json:"seeds"`
		CoverageFraction float64 `json:"coverageFraction"`
		EstimatedSpread  float64 `json:"estimatedSpread"`
		Covered          int64   `json:"covered"`
	}
	run := func(extra ...string) result {
		args := append([]string{"-dataset", "cit-HepTh", "-scale", "0.05", "-model", "LT",
			"-k", "10", "-eps", "0.5", "-seed", "1", "-json"}, extra...)
		var r result
		if err := json.Unmarshal([]byte(runCmd(t, "imm", args...)), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	plain, budgeted := run(), run("-budget", "1000")
	if plain.Theta == int64(plain.SamplesGenerated) {
		t.Fatalf("theta %d equals the sample count; the case no longer tells the divisors apart", plain.Theta)
	}
	if !slices.Equal(plain.Seeds, budgeted.Seeds) {
		t.Fatalf("budgeted seeds %v, plain seeds %v", budgeted.Seeds, plain.Seeds)
	}
	if want := float64(budgeted.Covered) / float64(budgeted.SamplesGenerated); budgeted.CoverageFraction != want {
		t.Errorf("query-mode coverage %v, want covered/samples = %v", budgeted.CoverageFraction, want)
	}
	if budgeted.CoverageFraction != plain.CoverageFraction || budgeted.EstimatedSpread != plain.EstimatedSpread {
		t.Errorf("query mode reports coverage %v, spread %v; the plain run %v, %v",
			budgeted.CoverageFraction, budgeted.EstimatedSpread, plain.CoverageFraction, plain.EstimatedSpread)
	}
}

func TestCmdImmdistLocalAndPartitioned(t *testing.T) {
	out := runCmd(t, "immdist", "-dataset", "com-YouTube", "-scale", "0.001", "-ranks", "2", "-k", "4", "-eps", "0.5")
	if !strings.Contains(out, "ranks: 2") || !strings.Contains(out, "seeds:") {
		t.Fatalf("immdist local output:\n%s", out)
	}
	// The graph-partitioned run is retired (EXPERIMENTS.md, "Extension"):
	// its flag is refused like any unknown one.
	cmd := exec.Command(binPath(t, "immdist"), "-dataset", "com-YouTube", "-scale", "0.001", "-ranks", "2", "-k", "4", "-eps", "0.5", "-partitioned")
	msg, _ := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 2 || !strings.Contains(string(msg), "flag provided but not defined: -partitioned") {
		t.Fatalf("immdist -partitioned: exit %d, want 2 with an undefined-flag error:\n%s", code, msg)
	}
}

// readReport decodes a -metrics-json artifact and checks its header.
func readReport(t *testing.T, path, algorithm string) *influmax.RunReport {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep influmax.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
	if rep.Schema != metrics.SchemaVersion {
		t.Fatalf("schema = %d, want %d", rep.Schema, metrics.SchemaVersion)
	}
	if rep.Algorithm != algorithm {
		t.Fatalf("algorithm = %q, want %q", rep.Algorithm, algorithm)
	}
	return &rep
}

func TestCmdIMMMetricsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	runCmd(t, "imm", "-dataset", "cit-HepTh", "-scale", "0.01", "-k", "4", "-eps", "0.5",
		"-workers", "2", "-verify", "200", "-metrics-json", path)
	rep := readReport(t, path, "IMMmt")
	if rep.Theta <= 0 || rep.SamplesGenerated <= 0 || rep.StoreBytes <= 0 {
		t.Fatalf("bookkeeping: %+v", rep)
	}
	if rep.TotalSeconds <= 0 || rep.PhaseSeconds["EstimateTheta"] <= 0 {
		t.Fatalf("phase durations: total=%v phases=%v", rep.TotalSeconds, rep.PhaseSeconds)
	}
	if len(rep.WorkerWork) != 2 || rep.WorkHistogram == nil || rep.WorkHistogram.Count != 2 {
		t.Fatalf("per-worker work: %v / %+v", rep.WorkerWork, rep.WorkHistogram)
	}
	if rep.Graph == nil || rep.Graph.Vertices <= 0 {
		t.Fatalf("graph info: %+v", rep.Graph)
	}
	if rep.Verified == nil || rep.Verified.Trials != 200 {
		t.Fatalf("verified: %+v", rep.Verified)
	}
	if rep.Metrics == nil || rep.Metrics.Counters["rrr/samples"] != rep.SamplesGenerated {
		t.Fatalf("engine metrics: %+v", rep.Metrics)
	}
	if rep.Kernel != "fused" || rep.FrontierPasses <= 0 {
		t.Fatalf("per-sample run: kernel %q, frontierPasses %d; want fused with passes", rep.Kernel, rep.FrontierPasses)
	}

	// -leapfrog runs the paper's engine, and the report must say so.
	lpath := filepath.Join(t.TempDir(), "leapfrog.json")
	runCmd(t, "imm", "-dataset", "cit-HepTh", "-scale", "0.002", "-k", "4", "-eps", "0.5",
		"-workers", "2", "-leapfrog", "-metrics-json", lpath)
	lrep := readReport(t, lpath, "IMMmt")
	if lrep.Kernel != "scalar" || lrep.FrontierPasses != 0 {
		t.Fatalf("leap-frog run: kernel %q, frontierPasses %d; want scalar with 0", lrep.Kernel, lrep.FrontierPasses)
	}
}

func TestCmdImmdistMetricsJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	runCmd(t, "immdist", "-dataset", "com-YouTube", "-scale", "0.001", "-ranks", "2",
		"-k", "4", "-eps", "0.5", "-metrics-json", path)
	rep := readReport(t, path, "IMMdist")
	if rep.Ranks != 2 || len(rep.PerRank) != 2 {
		t.Fatalf("perRank: ranks=%d subs=%d", rep.Ranks, len(rep.PerRank))
	}
	var samples int64
	for r, sub := range rep.PerRank {
		if sub.Rank != r || sub.TotalSeconds <= 0 {
			t.Fatalf("perRank[%d] = %+v", r, sub)
		}
		samples += sub.LocalSamples
	}
	if samples != rep.SamplesGenerated {
		t.Fatalf("rank samples sum to %d, report says %d", samples, rep.SamplesGenerated)
	}
	if rep.WorkBalance <= 0 || rep.WorkBalance > 1 {
		t.Fatalf("work balance = %v", rep.WorkBalance)
	}

}

// interruptCmd starts the binary, SIGINTs it shortly after launch, and
// asserts it exits 130 (the partial-report flush path).
func interruptCmd(t *testing.T, name string, args ...string) {
	t.Helper()
	cmd := exec.Command(binPath(t, name), args...)
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	cmd.Process.Signal(syscall.SIGINT)
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 130 {
		t.Fatalf("%s exit after SIGINT = %v (want code 130)\n%s", name, err, out.String())
	}
	if !strings.Contains(out.String(), "partial report written") {
		t.Fatalf("%s stderr missing flush notice:\n%s", name, out.String())
	}
}

// TestCmdIMMSignalFlush: killing imm mid-run with -metrics-json set must
// leave a partial RunReport with Interrupted=true. The parameters make
// the run take far longer than the signal delay (tiny eps => huge theta).
func TestCmdIMMSignalFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partial.json")
	interruptCmd(t, "imm", "-dataset", "com-Orkut", "-scale", "0.02", "-k", "100",
		"-eps", "0.08", "-metrics-json", path)
	rep := readReport(t, path, "IMMmt")
	if !rep.Interrupted {
		t.Fatal("partial report not marked interrupted")
	}
	if rep.K != 100 || rep.Epsilon != 0.08 {
		t.Fatalf("partial report config: %+v", rep)
	}
	if len(rep.Seeds) != 0 {
		t.Fatalf("interrupted run reported seeds: %v", rep.Seeds)
	}
}

func TestCmdImmdistSignalFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partial.json")
	interruptCmd(t, "immdist", "-dataset", "com-Orkut", "-scale", "0.02", "-ranks", "2",
		"-k", "100", "-eps", "0.08", "-metrics-json", path)
	rep := readReport(t, path, "IMMdist")
	if !rep.Interrupted || rep.Ranks != 2 {
		t.Fatalf("partial report: interrupted=%v ranks=%d", rep.Interrupted, rep.Ranks)
	}
}

func TestCmdIMMProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	runCmd(t, "imm", "-dataset", "cit-HepTh", "-scale", "0.005", "-k", "3", "-eps", "0.5",
		"-cpuprofile", cpu, "-memprofile", mem)
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

// startImmserve launches the immserve binary, waits for its "listening
// on" line, and returns the base URL, a live view of stderr, and a
// stopper that SIGTERMs the process and asserts a clean drain.
func startImmserve(t *testing.T, args ...string) (string, func() string) {
	t.Helper()
	cmd := exec.Command(binPath(t, "immserve"), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logged strings.Builder
	listening := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			logged.WriteString(line + "\n")
			mu.Unlock()
			if _, addr, ok := strings.Cut(line, "listening on http://"); ok {
				listening <- addr
			}
		}
	}()
	stop := func() string {
		t.Helper()
		cmd.Process.Signal(syscall.SIGTERM)
		// Drain stderr to EOF before Wait closes the pipe under the
		// scanner.
		select {
		case <-scanDone:
		case <-time.After(60 * time.Second):
			t.Fatal("immserve stderr never reached EOF after SIGTERM")
		}
		if err := cmd.Wait(); err != nil {
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("immserve exit: %v\n%s", err, logged.String())
		}
		mu.Lock()
		defer mu.Unlock()
		return logged.String()
	}
	select {
	case addr := <-listening:
		return "http://" + addr, stop
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("immserve never started listening:\n%s", logged.String())
		return "", nil
	}
}

// serveSeedsResp is the slice of the /v1/seeds wire shape the e2e test
// asserts on.
type serveSeedsResp struct {
	K      int                 `json:"k"`
	Seeds  []influmax.Vertex   `json:"seeds"`
	Source string              `json:"source"`
	Cached bool                `json:"cached"`
	Report *influmax.RunReport `json:"report"`
}

func queryImmserve(t *testing.T, base string, k int) serveSeedsResp {
	t.Helper()
	resp, err := http.Post(base+"/v1/seeds", "application/json",
		strings.NewReader(fmt.Sprintf(`{"k":%d}`, k)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/seeds k=%d: %d\n%s", k, resp.StatusCode, raw)
	}
	var sr serveSeedsResp
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("decoding %q: %v", raw, err)
	}
	return sr
}

// TestCmdImmserve drives the serving binary end to end twice over one
// snapshot path: the first run samples the sketch and persists it, the
// second warm-starts from the file and must report zero sampling time
// while returning the same seeds.
func TestCmdImmserve(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "sketch.snap")
	args := []string{"-dataset", "cit-HepTh", "-scale", "0.005", "-k-max", "20",
		"-eps", "0.5", "-addr", "127.0.0.1:0", "-snapshot", snap}

	base, stop := startImmserve(t, args...)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	cold := queryImmserve(t, base, 5)
	if len(cold.Seeds) != 5 || cold.Source != "sampled" {
		t.Fatalf("cold query: %+v", cold)
	}
	if cold.Report == nil || cold.Report.PhaseSeconds["Sample"] <= 0 {
		t.Fatalf("cold query should account sampling time: %+v", cold.Report)
	}

	mresp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snapBody struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&snapBody); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if snapBody.Counters["server/queries"] != 1 {
		t.Fatalf("metrics counters: %+v", snapBody.Counters)
	}

	logs := stop()
	for _, want := range []string{"sketch sampled", "snapshot written", "draining", "drained, bye"} {
		if !strings.Contains(logs, want) {
			t.Fatalf("first run stderr missing %q:\n%s", want, logs)
		}
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot not persisted: %v", err)
	}

	// Second run: warm start from the snapshot.
	base, stop = startImmserve(t, args...)
	warm := queryImmserve(t, base, 5)
	if warm.Source != "snapshot" {
		t.Fatalf("warm query source = %q", warm.Source)
	}
	for _, phase := range []string{"Sample", "EstimateTheta"} {
		if sec := warm.Report.PhaseSeconds[phase]; sec != 0 {
			t.Fatalf("warm start spent %v s in %s, want 0", sec, phase)
		}
	}
	if fmt.Sprint(warm.Seeds) != fmt.Sprint(cold.Seeds) {
		t.Fatalf("warm seeds %v != cold seeds %v", warm.Seeds, cold.Seeds)
	}
	logs = stop()
	if !strings.Contains(logs, "warm-started") {
		t.Fatalf("second run stderr missing warm start:\n%s", logs)
	}
}

func TestCmdImmserveErrors(t *testing.T) {
	runCmdExpectError(t, "immserve") // no input graph
	runCmdExpectError(t, "immserve", "-dataset", "cit-HepTh", "-scale", "0.005", "-model", "XX")
	runCmdExpectError(t, "immserve", "-dataset", "cit-HepTh", "-scale", "0.005", "-k-max", "0")
}

func TestCmdBiostudy(t *testing.T) {
	out := runCmd(t, "biostudy",
		"-features", "200", "-samples", "30", "-modules", "3", "-modsize", "15",
		"-k", "10", "-eps", "0.5", "-decoys", "3", "-top", "2")
	for _, want := range []string{"inferring co-expression network", "IMM (k=10", "degree centrality", "ground-truth modules"} {
		if !strings.Contains(out, want) {
			t.Fatalf("biostudy output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdExperiments(t *testing.T) {
	dir := t.TempDir()
	runCmd(t, "experiments", "-scale", "0.002", "-o", dir, "fig2")
	data, err := os.ReadFile(filepath.Join(dir, "fig2.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Figure 2") {
		t.Fatalf("fig2.md content:\n%s", data)
	}
	// CSV mode.
	runCmd(t, "experiments", "-scale", "0.002", "-csv", "-o", dir, "fig2")
	if _, err := os.Stat(filepath.Join(dir, "fig2.csv")); err != nil {
		t.Fatal("csv output missing")
	}
	// -metrics-json collects one RunReport per IMM run as a JSON array.
	mpath := filepath.Join(dir, "runs.json")
	runCmd(t, "experiments", "-scale", "0.002", "-o", dir, "-metrics-json", mpath, "fig2")
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var reps []*influmax.RunReport
	if err := json.Unmarshal(raw, &reps); err != nil {
		t.Fatalf("decoding %s: %v", mpath, err)
	}
	if len(reps) == 0 {
		t.Fatal("no run reports collected")
	}
	for _, rep := range reps {
		if rep.Schema != metrics.SchemaVersion || rep.Theta <= 0 {
			t.Fatalf("bad collected report: %+v", rep)
		}
	}
	runCmdExpectError(t, "experiments")                    // no experiment
	runCmdExpectError(t, "experiments", "nonexistent-exp") // unknown name
}

var updateReadme = flag.Bool("update-readme", false, "rewrite README's -h flag blocks from the binaries' output")

// TestReadmeFlagsMatchHelp keeps README's flag documentation in step with
// the binaries: each ```text flag block under "### cmd/<name>" must equal
// that binary's -h output minus the "Usage of" line, and the flag column
// of the immserve table must list exactly the flags immserve -h prints.
// With -update-readme it rewrites the flag blocks instead of failing on
// them:
//
//	go test -run TestReadmeFlagsMatchHelp . -update-readme
func TestReadmeFlagsMatchHelp(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	help := func(name string) string {
		out, err := exec.Command(binPath(t, name), "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", name, err, out)
		}
		_, body, _ := strings.Cut(string(out), "\n")
		return body
	}
	for _, name := range []string{"imm", "immdist", "graphgen", "experiments"} {
		section := strings.Index(readme, "### cmd/"+name+" ")
		if section < 0 {
			t.Fatalf("README has no cmd/%s section", name)
		}
		open := strings.Index(readme[section:], "```text\n")
		if open < 0 {
			t.Fatalf("README cmd/%s section has no text block", name)
		}
		start := section + open + len("```text\n")
		end := strings.Index(readme[start:], "```")
		if end < 0 {
			t.Fatalf("README cmd/%s text block is not closed", name)
		}
		end += start
		want := help(name)
		switch {
		case readme[start:end] == want:
		case *updateReadme:
			readme = readme[:start] + want + readme[end:]
		default:
			t.Errorf("README cmd/%s flag block differs from -h output (rerun with -update-readme); want:\n%s", name, want)
		}
	}
	if *updateReadme && readme != string(raw) {
		if err := os.WriteFile("README.md", []byte(readme), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var want []string
	for _, m := range regexp.MustCompile(`(?m)^  -([\w-]+)`).FindAllStringSubmatch(help("immserve"), -1) {
		want = append(want, m[1])
	}
	_, section, _ := strings.Cut(readme, "## Running immserve")
	_, table, ok := strings.Cut(section, "| Flag |")
	if !ok {
		t.Fatal("README immserve section has no flag table")
	}
	var got []string
	for _, line := range strings.Split(table, "\n")[2:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		col := strings.Split(line, "|")[1]
		for _, m := range regexp.MustCompile("`-([\\w-]+)`").FindAllStringSubmatch(col, -1) {
			got = append(got, m[1])
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("README immserve table flags %v, immserve -h prints %v", got, want)
	}
}
