// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§6). Each experiment is registered
// under the paper's table/figure id (fig1, table2, fig8, table3, table4,
// table5, fig9, fig10) and produces text reports with the same rows and
// series the paper prints; "ablation" and "crossover" isolate the design
// choices §4–§5 and the Table 2 discussion argue for. How the serving
// stack around the engine performs is the pinned suite's job (benchmark/),
// not this package's.
//
// Absolute numbers differ from the paper (different hardware, Go instead of
// C++, scaled-down data); what the harness preserves is the shape: which
// system wins, by roughly what factor, and where the crossovers fall.
//
// Methodology follows the paper: each measurement runs Config.Runs times
// and reports the minimum (the paper executes each query 3 times and takes
// the shortest, eliminating warm-up effects).
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Config parameterizes all experiments.
type Config struct {
	// SF is the benchmark scale factor. The paper runs SF=100; the
	// default here is 0.1 (600 K lineorder rows) so the full suite runs
	// on laptop-class hardware. Ratios between tables are preserved.
	SF float64
	// Workers is the engine parallelism (the paper uses 32 threads on 16
	// cores; default 1 for stable single-machine comparisons).
	Workers int
	// Runs is how many times each measurement repeats; the minimum is
	// reported. Default 3, the paper's methodology.
	Runs int
	// Seed makes data generation deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.SF <= 0 {
		c.SF = 0.1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Runs < 1 {
		c.Runs = 3
	}
	return c
}

// Report is one rendered result table.
type Report struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Format renders the report as aligned text.
func (r *Report) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Headers))
	all := append([][]string{r.Headers}, r.Rows...)
	for _, row := range all {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, row := range all {
		for i, c := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			if i == 0 {
				sb.WriteString(c)
				sb.WriteString(strings.Repeat(" ", pad))
			} else {
				sb.WriteString(strings.Repeat(" ", pad))
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					sb.WriteString("  ")
				}
				sb.WriteString(strings.Repeat("-", w))
			}
			sb.WriteByte('\n')
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the report as comma-separated values (one header line, one
// line per row; commas in cells are replaced with semicolons).
func (r *Report) CSV() string {
	var sb strings.Builder
	esc := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	for i, h := range r.Headers {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(esc(h))
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		for i, c := range row {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(esc(c))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Experiment is one registered paper experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) ([]*Report, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// Experiments returns all registered experiments sorted by id.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// aliases maps alternative paper labels to registered experiment ids.
var aliases = map[string]string{
	"table6": "fig9", // Table 6 defines the variants Fig. 9 measures
}

// Find returns the experiment registered under id (or one of its aliases).
func Find(id string) (Experiment, bool) {
	if canon, ok := aliases[id]; ok {
		id = canon
	}
	e, ok := registry[id]
	return e, ok
}

// best runs f cfg.Runs times and returns the minimum duration.
func best(runs int, f func() error) (time.Duration, error) {
	bestD := time.Duration(1<<63 - 1)
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); d < bestD {
			bestD = d
		}
	}
	return bestD, nil
}

// ms renders a duration in milliseconds with two decimals.
func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e6) }

// nsPerTuple renders a per-tuple cost.
func nsPerTuple(d time.Duration, n int) string {
	return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/float64(n))
}
