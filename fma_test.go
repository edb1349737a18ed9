package influmax_test

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestNoFusedMultiplyAdd compiles the engine packages for arm64 with -S
// and fails on any fused multiply-add outside the allowlist. Go lets a
// compiler fuse x*y + z into one instruction with a single rounding, and
// arm64 does; amd64 does not. A fused product on a path that decides what
// is drawn (theta, coin thresholds) would make samples, seeds and goldens
// differ between the two. An explicit float64(...) around the product
// prevents fusion. The allowlist names functions whose results are only
// estimates reported to the user, never inputs to sampling.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles six packages for arm64")
	}
	allow := []struct{ file, fn, why string }{
		{"diffuse/crn.go", "EstimateSpreadCRN", "Monte Carlo sum of squares"},
		{"diffuse/forward.go", "EstimateSpread", "Monte Carlo sum of squares"},
		{"rng/rng.go", "(*Rand).NormFloat64", "normal variates for generated bio data"},
	}
	pkgs := []string{"imm", "diffuse", "rng", "rrr", "dist", "graph"}
	args := []string{"build", "-gcflags=-S"}
	for _, p := range pkgs {
		args = append(args, "./internal/"+p)
	}
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "GOOS=linux", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}

	// A function header reads "influmax/internal/<pkg>.<func> STEXT ...";
	// an instruction line carries its source position in parentheses.
	header := regexp.MustCompile(`^influmax/internal/(\w+)\.(\S+) STEXT`)
	fused := regexp.MustCompile(`\(\S*/internal/([^:]+):(\d+)\)\s+(FN?M(?:ADD|SUB)[DS])\s`)
	closure := regexp.MustCompile(`\.func\d.*$`)
	seen := map[string]bool{}
	fn := ""
	for _, line := range strings.Split(string(out), "\n") {
		if m := header.FindStringSubmatch(line); m != nil {
			seen[m[1]] = true
			fn = closure.ReplaceAllString(m[2], "")
			continue
		}
		m := fused.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ok := false
		for _, a := range allow {
			ok = ok || (a.file == m[1] && a.fn == fn)
		}
		if !ok {
			t.Errorf("%s at internal/%s:%s in %s: wrap the product in float64(...) or allowlist the function",
				m[3], m[1], m[2], fn)
		}
	}
	for _, p := range pkgs {
		if !seen[p] {
			t.Fatalf("no assembly listed for internal/%s; the check would pass vacuously", p)
		}
	}
}
