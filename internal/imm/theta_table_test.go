package imm

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// thetaRow renders one line of testdata/theta_table.txt: the point
// "n k eps l", then ThetaAt(x) for x = 1..MaxX, then FinalTheta at the
// lower bounds 1, sqrt(n), n/7 and n.
func thetaRow(n, k int, eps, l float64) string {
	m := NewAnalysis(n, k, eps, l)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d %d %g %g |", n, k, eps, l)
	for x := 1; x <= m.MaxX(); x++ {
		fmt.Fprintf(&sb, " %d", m.ThetaAt(x))
	}
	sb.WriteString(" |")
	nf := float64(n)
	for _, lb := range []float64{1, math.Sqrt(nf), nf / 7, nf} {
		fmt.Fprintf(&sb, " %d", m.FinalTheta(lb))
	}
	return sb.String()
}

// TestThetaTable pins the estimation schedule and the final theta at 54
// (n, k, eps, l) points, n from 50 to 2e7, against values recorded on
// amd64. Theta decides every sample, seed and golden downstream, so a
// change to the theta math (or a platform that evaluates it differently,
// e.g. by fusing a multiply-add) shows here first.
func TestThetaTable(t *testing.T) {
	f, err := os.Open("testdata/theta_table.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want := sc.Text()
		var n, k int
		var eps, l float64
		if _, err := fmt.Sscan(want, &n, &k, &eps, &l); err != nil {
			t.Fatalf("line %d: %v", rows+1, err)
		}
		if got := thetaRow(n, k, eps, l); got != want {
			t.Errorf("theta table line %d:\n got %s\nwant %s", rows+1, got, want)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 54 {
		t.Fatalf("theta table has %d rows, want 54", rows)
	}
}
