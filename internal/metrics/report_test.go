package metrics

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"influmax/internal/mpi"
	"influmax/internal/trace"
)

func TestRunReportRoundTrip(t *testing.T) {
	var ph trace.Times
	ph.Add(trace.Sampling, 2*time.Second)
	ph.Add(trace.Other, time.Second)
	rep := NewRunReport("IMMmt", ph)
	rep.K, rep.Epsilon, rep.Theta = 50, 0.5, 12345
	rep.WorkerWork = []int64{100, 90, 110, 100}
	rep.WorkBalance = WorkBalanceOf(rep.WorkerWork)
	h := NewHistogram()
	h.ObserveAll(rep.WorkerWork)
	rep.WorkHistogram = h.Snapshot()

	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got RunReport
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion {
		t.Fatalf("schema = %d, want %d", got.Schema, SchemaVersion)
	}
	if got.Algorithm != "IMMmt" || got.Theta != 12345 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.PhaseSeconds[trace.Sampling.String()] != 2 {
		t.Fatalf("phase map = %v", got.PhaseSeconds)
	}
	if got.TotalSeconds != 3 {
		t.Fatalf("total = %v", got.TotalSeconds)
	}
	if got.WorkHistogram == nil || got.WorkHistogram.Count != 4 {
		t.Fatalf("work histogram = %+v", got.WorkHistogram)
	}
}

// TestRunReportSchemaField pins the wire name "schema": external
// trajectory tooling greps for it, so renaming is a breaking change.
func TestRunReportSchemaField(t *testing.T) {
	buf, err := NewRunReport("IMMopt", trace.Times{}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	if v, ok := m["schema"].(float64); !ok || int(v) != SchemaVersion {
		t.Fatalf(`m["schema"] = %v, want %d`, m["schema"], SchemaVersion)
	}
	for _, key := range []string{"algorithm", "phaseSeconds", "totalSeconds", "theta", "storeBytes"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("JSON missing required key %q: %v", key, m)
		}
	}
}

func TestGatherRankReports(t *testing.T) {
	const p = 4
	comms := mpi.NewLocalCluster(p)
	var wg sync.WaitGroup
	outs := make([][]RankReport, p)
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var ph trace.Times
			ph.Add(trace.Sampling, time.Duration(rank+1)*time.Second)
			local := RankReport{
				Rank:         rank,
				LocalSamples: int64(100 * (rank + 1)),
				LocalWork:    int64(1000 * (rank + 1)),
				StoreBytes:   int64(1 << rank),
				PhaseSeconds: ph.Seconds(),
				TotalSeconds: ph.Total().Seconds(),
			}
			outs[rank], errs[rank] = GatherRankReports(comms[rank], local)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 1; r < p; r++ {
		if outs[r] != nil {
			t.Fatalf("non-root rank %d got %v", r, outs[r])
		}
	}
	got := outs[0]
	if len(got) != p {
		t.Fatalf("root gathered %d reports, want %d", len(got), p)
	}
	for r := 0; r < p; r++ {
		if got[r].Rank != r || got[r].LocalSamples != int64(100*(r+1)) {
			t.Fatalf("report[%d] = %+v", r, got[r])
		}
		if got[r].PhaseSeconds[trace.Sampling.String()] != float64(r+1) {
			t.Fatalf("report[%d] phases = %v", r, got[r].PhaseSeconds)
		}
	}
}

func TestReportLog(t *testing.T) {
	l := NewReportLog()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Add(NewRunReport("IMMopt", trace.Times{}))
		}()
	}
	wg.Wait()
	if l.Len() != 10 {
		t.Fatalf("len = %d", l.Len())
	}
	path := filepath.Join(t.TempDir(), "runs.json")
	if err := l.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var arr []RunReport
	if err := json.Unmarshal(buf, &arr); err != nil {
		t.Fatal(err)
	}
	if len(arr) != 10 || arr[0].Schema != SchemaVersion {
		t.Fatalf("decoded %d reports, first %+v", len(arr), arr[0])
	}
}
