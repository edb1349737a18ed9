package imm

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"influmax/internal/trace"
)

// scriptedSamples is a Samples whose Cover answers a scripted fraction of
// the samples drawn so far, and which fails on a chosen call. Every call
// takes callTime, so the phases it runs in are measurably non-empty.
type scriptedSamples struct {
	frac       []float64 // Cover call i covers frac[i] of the total (0 past the end)
	failExtend int       // 1-based Extend call that fails; 0 never
	failCover  int       // 1-based Cover call that fails; 0 never

	total   int64
	extends []int64 // the count of every Extend call
	ks      []int   // the k of every Cover call
}

const callTime = time.Millisecond

var errScripted = errors.New("scripted failure")

func (s *scriptedSamples) Extend(count int64) (int64, error) {
	time.Sleep(callTime)
	s.extends = append(s.extends, count)
	if len(s.extends) == s.failExtend {
		return s.total, errScripted
	}
	s.total += max(count, 0)
	return s.total, nil
}

func (s *scriptedSamples) Cover(k int) (int64, error) {
	time.Sleep(callTime)
	s.ks = append(s.ks, k)
	if len(s.ks) == s.failCover {
		return 0, errScripted
	}
	var f float64
	if i := len(s.ks) - 1; i < len(s.frac) {
		f = s.frac[i]
	}
	return int64(f * float64(s.total)), nil
}

// handTheta is the Analysis's constants worked through Tang et al.'s
// formulas directly: the samples iteration x asks for, its acceptance
// threshold on n*F, and theta for a lower bound lb.
func handTheta(tm Analysis, x int) int64 {
	return int64(math.Ceil(tm.lambdaP * math.Pow(2, float64(x)) / tm.n))
}

func handThreshold(tm Analysis, x int) float64 {
	return (1 + math.Sqrt2*tm.eps) * tm.n / math.Pow(2, float64(x))
}

func handFinal(tm Analysis, lb float64) int64 {
	return int64(math.Ceil(tm.lambdaS / max(lb, 1)))
}

func TestEstimateStopsAtFirstCertifiedIteration(t *testing.T) {
	const n, k = 10000, 5
	tm := NewAnalysis(n, k, 0.5, 1)
	if tm.maxX < 4 {
		t.Fatalf("maxX %d leaves no room for the script", tm.maxX)
	}
	// Iterations 1 and 2 cover too little; iteration 3 covers a quarter of
	// the samples, which clears (1 + eps') n / 8.
	s := &scriptedSamples{frac: []float64{0.01, 0.1, 0.25}}
	var phases trace.Times
	theta, lb, err := Estimate(s, tm, k, &phases)
	if err != nil {
		t.Fatal(err)
	}
	total3 := handTheta(tm, 3)
	cov3 := int64(0.25 * float64(total3))
	nF := n * float64(cov3) / float64(total3)
	if nF < handThreshold(tm, 3) || n*0.1 >= handThreshold(tm, 2) {
		t.Fatalf("script does not stop exactly at iteration 3 (nF %v)", nF)
	}
	wantLB := nF / (1 + math.Sqrt2*0.5)
	if lb != wantLB {
		t.Fatalf("lb = %v, want %v", lb, wantLB)
	}
	if want := handFinal(tm, wantLB); theta != want {
		t.Fatalf("theta = %d, want %d", theta, want)
	}
	wantExt := []int64{handTheta(tm, 1), handTheta(tm, 2) - handTheta(tm, 1),
		total3 - handTheta(tm, 2), theta - total3}
	if !slices.Equal(s.extends, wantExt) {
		t.Fatalf("Extend calls %v, want %v", s.extends, wantExt)
	}
	if !slices.Equal(s.ks, []int{k, k, k}) {
		t.Fatalf("Cover calls %v, want three with k = %d", s.ks, k)
	}
	if s.total != theta {
		t.Fatalf("samples drawn %d, want theta %d", s.total, theta)
	}
	if est := phases.Get(trace.Estimation); est < 6*callTime {
		t.Fatalf("Estimation recorded %v for six calls", est)
	}
	if smp := phases.Get(trace.Sampling); smp < callTime {
		t.Fatalf("Sampling recorded %v for the final draw", smp)
	}
}

func TestEstimateWithoutCertificateUsesUnitBound(t *testing.T) {
	const n, k = 4096, 3
	tm := NewAnalysis(n, k, 0.5, 1)
	s := &scriptedSamples{} // covers nothing, ever
	var phases trace.Times
	theta, lb, err := Estimate(s, tm, k, &phases)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 1 {
		t.Fatalf("lb = %v after an uncertified search, want 1", lb)
	}
	if want := handFinal(tm, 1); theta != want {
		t.Fatalf("theta = %d, want %d", theta, want)
	}
	if len(s.ks) != tm.maxX || len(s.extends) != tm.maxX+1 {
		t.Fatalf("%d Cover / %d Extend calls, want %d / %d", len(s.ks), len(s.extends), tm.maxX, tm.maxX+1)
	}
	if last := handTheta(tm, tm.maxX); s.total != max(theta, last) {
		t.Fatalf("samples drawn %d, want max(theta %d, last iteration %d)", s.total, theta, last)
	}
}

func TestEstimateReturnsMidLoopErrors(t *testing.T) {
	tm := NewAnalysis(4096, 3, 0.5, 1)
	for _, tc := range []struct {
		name string
		s    *scriptedSamples
		// calls the run makes before failing
		calls int
	}{
		{"extend", &scriptedSamples{failExtend: 2}, 3},
		{"cover", &scriptedSamples{failCover: 2}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var phases trace.Times
			theta, lb, err := Estimate(tc.s, tm, 3, &phases)
			if !errors.Is(err, errScripted) {
				t.Fatalf("err = %v, want the scripted failure", err)
			}
			if theta != 0 || lb != 0 {
				t.Fatalf("theta %d, lb %v from a failed search", theta, lb)
			}
			if n := len(tc.s.extends) + len(tc.s.ks); n != tc.calls {
				t.Fatalf("%d calls, want %d: Estimate went on past the failure", n, tc.calls)
			}
			if est := phases.Get(trace.Estimation); est < time.Duration(tc.calls)*callTime {
				t.Fatalf("Estimation recorded %v for %d calls", est, tc.calls)
			}
			if smp := phases.Get(trace.Sampling); smp != 0 {
				t.Fatalf("Sampling recorded %v, but the final draw never ran", smp)
			}
		})
	}
}

func TestEstimateReturnsFinalDrawError(t *testing.T) {
	tm := NewAnalysis(10000, 5, 0.5, 1)
	// The first iteration certifies, so the second Extend is the final draw.
	s := &scriptedSamples{frac: []float64{1}, failExtend: 2}
	var phases trace.Times
	theta, lb, err := Estimate(s, tm, 5, &phases)
	if !errors.Is(err, errScripted) {
		t.Fatalf("err = %v, want the scripted failure", err)
	}
	if lb != 10000/(1+math.Sqrt2*0.5) || theta != handFinal(tm, lb) {
		t.Fatalf("theta %d, lb %v: the search's result is lost with the final draw's error", theta, lb)
	}
	if phases.Get(trace.Estimation) < 2*callTime || phases.Get(trace.Sampling) < callTime {
		t.Fatalf("phases %v do not record both the search and the failed draw", phases.String())
	}
}
