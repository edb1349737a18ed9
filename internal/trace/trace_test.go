package trace

import (
	"strings"
	"testing"
	"time"
)

// TestPhaseString is the table-driven single-source-of-truth check: every
// phase renders the exact paper legend name, and out-of-range values (both
// directions) degrade to the Phase(n) form instead of panicking.
func TestPhaseString(t *testing.T) {
	tests := []struct {
		p    Phase
		want string
	}{
		{Estimation, "EstimateTheta"},
		{Sampling, "Sample"},
		{IndexBuild, "BuildIndex"},
		{SelectSeeds, "SelectSeeds"},
		{Other, "Other"},
		{Phase(-1), "Phase(-1)"},
		{numPhases, "Phase(5)"},
		{Phase(99), "Phase(99)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("Phase(%d).String() = %q, want %q", int(tt.p), got, tt.want)
		}
	}
}

// TestAllPhasesCoversEveryPhase pins allPhases to the full legend-ordered
// enumeration, so consumers iterating it (metrics, harness) can never miss
// a phase added later.
func TestAllPhasesCoversEveryPhase(t *testing.T) {
	all := allPhases()
	if len(all) != int(numPhases) {
		t.Fatalf("allPhases() has %d entries, want %d", len(all), numPhases)
	}
	for i, p := range all {
		if p != Phase(i) {
			t.Errorf("allPhases()[%d] = %v, want %v", i, p, Phase(i))
		}
	}
}

func TestAddGetTotal(t *testing.T) {
	var tm Times
	tm.Add(Estimation, 2*time.Second)
	tm.Add(Sampling, time.Second)
	tm.Add(Estimation, time.Second)
	if got := tm.Get(Estimation); got != 3*time.Second {
		t.Fatalf("Get(Estimation) = %v", got)
	}
	if got := tm.Total(); got != 4*time.Second {
		t.Fatalf("Total = %v", got)
	}
}

func TestMeasure(t *testing.T) {
	var tm Times
	tm.Measure(SelectSeeds, func() { time.Sleep(10 * time.Millisecond) })
	if got := tm.Get(SelectSeeds); got < 5*time.Millisecond {
		t.Fatalf("Measure recorded %v", got)
	}
	if tm.Get(Sampling) != 0 {
		t.Fatal("Measure leaked into another phase")
	}
}

func TestMerge(t *testing.T) {
	var a, b Times
	a.Add(Other, time.Second)
	b.Add(Other, 2*time.Second)
	b.Add(Sampling, time.Second)
	a.merge(b)
	if a.Get(Other) != 3*time.Second || a.Get(Sampling) != time.Second {
		t.Fatalf("merge wrong: %v", a.String())
	}
}

// TestStringUsesPhaseNames checks Times.String renders through
// Phase.String (the single source of truth) for every phase, in legend
// order.
func TestStringUsesPhaseNames(t *testing.T) {
	var tm Times
	s := tm.String()
	prev := -1
	for _, p := range allPhases() {
		idx := strings.Index(s, p.String()+"=")
		if idx < 0 {
			t.Fatalf("String() missing %s: %q", p, s)
		}
		if idx < prev {
			t.Fatalf("String() out of legend order: %q", s)
		}
		prev = idx
	}
}

func TestSecondsKeyedByPhaseNames(t *testing.T) {
	var tm Times
	tm.Add(Sampling, 1500*time.Millisecond)
	m := tm.Seconds()
	if len(m) != int(numPhases) {
		t.Fatalf("Seconds() has %d keys, want %d", len(m), numPhases)
	}
	for _, p := range allPhases() {
		if _, ok := m[p.String()]; !ok {
			t.Fatalf("Seconds() missing key %q", p.String())
		}
	}
	if m[Sampling.String()] != 1.5 {
		t.Fatalf("Seconds()[Sample] = %v, want 1.5", m[Sampling.String()])
	}
}

func TestHeapAllocPositive(t *testing.T) {
	if HeapAlloc() == 0 {
		t.Fatal("HeapAlloc returned 0")
	}
}

// merge adds other's durations into t.
func (t *Times) merge(other Times) {
	for i := range t.d {
		t.d[i] += other.d[i]
	}
}
