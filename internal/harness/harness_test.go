package harness

import (
	"strings"
	"testing"
)

// tiny is a configuration small enough for unit tests: minuscule analogs
// and trimmed sweeps.
func tiny() Config {
	return Config{
		Scale:     0.001,
		Seed:      1,
		Workers:   2,
		EpsValues: []float64{0.5},
		KValues:   []int{5, 10},
		Threads:   []int{1, 2},
		Ranks:     []int{1, 2},
		Trials:    200,
		BaseK:     10,
		DistEps:   0.5,
		DistK:     12,
	}
}

func checkTable(t *testing.T, tab *Table, minRows int) {
	t.Helper()
	if tab.ID == "" || tab.Title == "" {
		t.Fatal("table missing identification")
	}
	if len(tab.Rows) < minRows {
		t.Fatalf("%s: only %d rows", tab.ID, len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("%s row %d: %d cells vs %d headers", tab.ID, i, len(row), len(tab.Header))
		}
	}
	md := tab.Markdown()
	if !strings.Contains(md, tab.ID) || !strings.Contains(md, "|") {
		t.Fatalf("%s: markdown malformed", tab.ID)
	}
	csv := tab.CSV()
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != len(tab.Rows)+1 {
		t.Fatalf("%s: csv row count wrong", tab.ID)
	}
}

func TestFig1(t *testing.T) {
	cfg := tiny()
	tab, err := fig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 2)
}

func TestTable2(t *testing.T) {
	cfg := tiny()
	cfg.Datasets = []string{"cit-HepTh", "soc-Epinions1"}
	tab, err := table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 2)
	// The memory column must show savings (compact < hypergraph).
	for _, row := range tab.Rows {
		savings := row[len(row)-1]
		if strings.HasPrefix(savings, "-") {
			t.Fatalf("negative memory savings: %v", row)
		}
	}
}

func TestFig2(t *testing.T) {
	cfg := tiny()
	tab, err := fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 1)
}

func TestFig3AndFig4(t *testing.T) {
	cfg := tiny()
	cfg.Datasets = []string{"cit-HepTh"}
	tab3, err := fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab3, 1)
	tab4, err := fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab4, 2)
}

func TestFig5AndFig6(t *testing.T) {
	cfg := tiny()
	cfg.Datasets = []string{"cit-HepTh"}
	for _, f := range []func(Config) (*Table, error){fig5, fig6} {
		tab, err := f(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkTable(t, tab, 2)
	}
}

func TestFig7AndFig8(t *testing.T) {
	cfg := tiny()
	cfg.Datasets = []string{"com-YouTube"}
	for _, f := range []func(Config) (*Table, error){fig7, fig8} {
		tab, err := f(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkTable(t, tab, 2)
	}
}

func TestTable3(t *testing.T) {
	cfg := tiny()
	cfg.Datasets = []string{"com-Orkut"}
	tab, err := table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 4)
	// Four implementations per graph, baseline speedup exactly 1.00x.
	if tab.Rows[0][5] != "1.00x" {
		t.Fatalf("baseline speedup = %s", tab.Rows[0][5])
	}
}

func TestBio(t *testing.T) {
	cfg := tiny()
	tab, err := bioStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 6) // 2 networks x 3 methods
	// IMM should recover at least one ground-truth module per network.
	for _, row := range tab.Rows {
		if row[1] == "IMM" && strings.HasPrefix(row[3], "0/") {
			t.Fatalf("IMM recovered no planted modules: %v", row)
		}
	}
}

func TestValidate(t *testing.T) {
	cfg := tiny()
	cfg.Datasets = []string{"cit-HepTh"}
	tab, err := validate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 5)
	// The per-sample variants must agree with the baseline exactly.
	for _, row := range tab.Rows {
		if strings.Contains(row[1], "per-sample") && row[2] != "1.00" {
			t.Fatalf("per-sample RBO = %s, want 1.00: %v", row[2], row)
		}
	}
}

// TestDriverNamesUnique checks the registry cmd/experiments selects from:
// every driver has a run function and a name no other driver shares.
func TestDriverNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range Drivers() {
		if d.Name == "" || d.Run == nil {
			t.Fatalf("incomplete driver %+v", d)
		}
		if seen[d.Name] {
			t.Fatalf("driver name %q registered twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale <= 0 || c.Workers < 1 || c.Trials < 1 {
		t.Fatalf("defaults unresolved: %+v", c)
	}
	if !c.wantDataset("anything") {
		t.Fatal("empty filter must accept all")
	}
	c.Datasets = []string{"a"}
	if c.wantDataset("b") || !c.wantDataset("a") {
		t.Fatal("filter wrong")
	}
}

func TestBaselinesDriver(t *testing.T) {
	cfg := tiny()
	tab, err := baselines(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 9)
}
