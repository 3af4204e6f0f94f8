package bench

import (
	"strconv"
	"strings"
	"testing"
)

// tinyCfg keeps experiment smoke tests fast.
func tinyCfg() Config {
	return Config{SF: 0.002, Workers: 1, Runs: 1, Seed: 1}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablation", "crossover", "fig1", "fig10", "fig8", "fig9",
		"table2", "table3", "table4", "table5"}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(exps), len(want))
	}
	for i, e := range exps {
		if e.ID != want[i] {
			t.Errorf("experiment[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
	if _, ok := Find("table5"); !ok {
		t.Error("Find(table5) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
}

// TestAllExperimentsRun smoke-tests every experiment end to end at a tiny
// scale factor and sanity-checks the report structure.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			reports, err := e.Run(tinyCfg())
			if err != nil {
				t.Fatal(err)
			}
			if len(reports) == 0 {
				t.Fatal("no reports")
			}
			for _, rep := range reports {
				if len(rep.Headers) < 2 || len(rep.Rows) == 0 {
					t.Fatalf("%s: degenerate report %+v", rep.ID, rep)
				}
				for _, row := range rep.Rows {
					if len(row) != len(rep.Headers) {
						t.Fatalf("%s: row width %d != header width %d", rep.ID, len(row), len(rep.Headers))
					}
					// Every measurement cell parses as a number (ratio
					// cells carry an "x" suffix); padding cells are exempt.
					for _, cell := range row[1:] {
						switch cell {
						case "", "-":
							continue
						}
						cell = strings.TrimSuffix(strings.Fields(cell)[0], "x")
						if _, err := strconv.ParseFloat(cell, 64); err != nil {
							t.Fatalf("%s: non-numeric cell %q", rep.ID, cell)
						}
					}
				}
				out := rep.Format()
				if !strings.Contains(out, rep.ID) {
					t.Errorf("%s: Format missing id", rep.ID)
				}
			}
		})
	}
}

func TestTable2SpecsRatios(t *testing.T) {
	specs := table2Specs(Config{SF: 0.1}.withDefaults())
	if len(specs) != 19 {
		t.Fatalf("specs = %d, want 19", len(specs))
	}
	for _, s := range specs {
		if s.nFact <= 0 || s.nDim <= 0 {
			t.Errorf("%s: degenerate sizes %d:%d", s.name, s.nFact, s.nDim)
		}
	}
	// Workload B is 1:1.
	last := specs[len(specs)-1]
	if last.nFact != last.nDim {
		t.Errorf("workload B not 1:1: %d:%d", last.nFact, last.nDim)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.SF != 0.1 || c.Workers != 1 || c.Runs != 3 {
		t.Errorf("defaults = %+v", c)
	}
	c2 := Config{SF: 1, Workers: 8, Runs: 5}.withDefaults()
	if c2.SF != 1 || c2.Workers != 8 || c2.Runs != 5 {
		t.Errorf("explicit config overridden: %+v", c2)
	}
}

func TestReportFormat(t *testing.T) {
	r := &Report{
		ID: "x", Title: "t",
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"r1", "1.00"}},
		Notes:   []string{"hello"},
	}
	out := r.Format()
	for _, want := range []string{"== x: t ==", "a", "b", "r1", "1.00", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}
