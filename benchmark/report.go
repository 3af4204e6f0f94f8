package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

const reportSchema = "astore-benchmark/1"

// envInfo records where a report was measured.
type envInfo struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readEnv() envInfo {
	e := envInfo{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown", Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; "unknown" is expected there.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// measured is one end-to-end metric of one workload in a report.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Runs are the values of the individual runs behind Value, their median.
	Runs []float64 `json:"runs,omitempty"`
	// Spread is the runs' interquartile distance as a share of their median;
	// present only when -agree made more than one run.
	Spread *float64 `json:"spread,omitempty"`
}

// workloadReport is one workload's part of a suite report.
type workloadReport struct {
	Name     string              `json:"name"`
	Why      string              `json:"why"`
	EndToEnd map[string]measured `json:"end_to_end"`
	PerLayer map[string]float64  `json:"per_layer"`
	Samples  map[string]int      `json:"samples"`
	Checks   []check             `json:"checks"`
	Failures []string            `json:"failures,omitempty"`
}

// suiteReport is what `benchmark -out` writes and `benchmark -compare` reads.
type suiteReport struct {
	Schema string   `json:"schema"`
	Env    envInfo  `json:"env"`
	Config struct { // the pinned values the numbers belong to
		SF       float64 `json:"sf"`
		DataSeed int64   `json:"data_seed"`
		Seed     int64   `json:"seed"`
		Seconds  float64 `json:"seconds"`
		Clients  int     `json:"clients"`
		Agree    int     `json:"agree_runs"`
	} `json:"config"`
	Workloads []workloadReport   `json:"workloads"`
	Layers    map[string]float64 `json:"layers"` // the in-process layer pass
}

// runSuite runs all five workloads (tracing off, rounds times each), a traced
// window per workload, and the in-process layer pass.
func runSuite(ctx context.Context, cfg config, seed int64, rounds int, traceOut string) (*suiteReport, bool, error) {
	rep := &suiteReport{Schema: reportSchema, Env: readEnv()}
	rep.Config.SF, rep.Config.DataSeed, rep.Config.Seed = cfg.sf, cfg.dataSeed, seed
	rep.Config.Seconds, rep.Config.Clients, rep.Config.Agree = cfg.seconds, pinnedClients, rounds

	ok := true
	runs := make(map[string]map[string][]float64) // workload -> metric -> one value per round
	var spans []spanRecord
	for round := 0; round < rounds; round++ {
		// Rounds go workload by workload so that drift over the session lands
		// on every workload alike.
		for wi, name := range workloadNames {
			plan := runPlan{setups: 3, untraced: 1}
			if round == 0 {
				plan.traced = 0.5
			}
			fmt.Fprintf(os.Stderr, "round %d/%d: %s\n", round+1, rounds, name)
			res, err := runWorkload(ctx, cfg, name, seed, plan)
			if err != nil {
				return nil, false, fmt.Errorf("%s: %w", name, err)
			}
			ok = ok && res.ok()
			if runs[name] == nil {
				runs[name] = make(map[string][]float64)
			}
			for metric, v := range res.EndToEnd {
				runs[name][metric] = append(runs[name][metric], v)
			}
			if round == 0 {
				rep.Workloads = append(rep.Workloads, workloadReport{
					Name: name, Why: workloadWhy[name], PerLayer: res.PerLayer,
					Samples: res.Samples, Checks: res.Checks, Failures: res.Failures,
				})
				spans = append(spans, res.spans...)
			} else if !res.ok() {
				w := &rep.Workloads[wi] // appended in this order in round 0
				w.Checks = append(w.Checks, res.Checks...)
				w.Failures = append(w.Failures, res.Failures...)
			}
		}
	}
	for i := range rep.Workloads {
		w := &rep.Workloads[i]
		w.EndToEnd = make(map[string]measured)
		for _, def := range endToEnd {
			vals, have := runs[w.Name][def.name]
			if !have {
				continue
			}
			m := measured{Value: median(vals), Unit: def.unit, Runs: vals}
			if len(vals) > 1 {
				s := relSpread(vals)
				m.Spread = &s
			}
			w.EndToEnd[def.name] = m
		}
	}

	fmt.Fprintln(os.Stderr, "in-process layer pass")
	layers, err := runLayers(ctx, cfg)
	if err != nil {
		return nil, false, fmt.Errorf("layer pass: %w", err)
	}
	rep.Layers = layers

	if traceOut != "" {
		if err := writeSpans(traceOut, spans); err != nil {
			return nil, false, err
		}
	}
	return rep, ok, nil
}

// writeSpans writes the traced windows' spans, one JSON object per line.
func writeSpans(path string, spans []spanRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeReport(path string, rep *suiteReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*suiteReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep suiteReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, reportSchema)
	}
	return &rep, nil
}

// printReport prints every metric by name with its unit.
func printReport(out io.Writer, rep *suiteReport) {
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "# %s  go %s  GOMAXPROCS %d  nproc %d  %s  commit %s\n",
		rep.Schema, rep.Env.Go, rep.Env.GOMAXPROCS, rep.Env.NumCPU, rep.Env.CPUModel, rep.Env.Commit)
	fmt.Fprintf(tw, "# SF %g  data seed %d  seed %d  %gs measured  %d clients  %d run(s) per workload\n\n",
		rep.Config.SF, rep.Config.DataSeed, rep.Config.Seed, rep.Config.Seconds, rep.Config.Clients, rep.Config.Agree)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tspread\tbound / detail")
	for _, w := range rep.Workloads {
		for _, def := range endToEnd {
			m, have := w.EndToEnd[def.name]
			if !have {
				continue
			}
			spread := "-"
			if m.Spread != nil {
				spread = fmt.Sprintf("%.4f", *m.Spread)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%s\t%g\n", w.Name, def.name, m.Value, m.Unit, spread, def.bound)
		}
		fmt.Fprintf(tw, "%s\tsamples\t\t\t\t%s\n", w.Name, formatCounts(w.Samples))
		for _, def := range perLayer {
			if v, have := w.PerLayer[def.name]; have {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t\t\n", w.Name, def.name, v, def.unit)
			}
		}
		for _, c := range w.Checks {
			state := "ok"
			if !c.OK {
				state = "FAILED"
			}
			fmt.Fprintf(tw, "%s\tcheck %s\t%s\t\t\t%s\n", w.Name, c.Name, state, c.Detail)
		}
		for _, f := range w.Failures {
			fmt.Fprintf(tw, "%s\tfailure\t\t\t\t%s\n", w.Name, f)
		}
		fmt.Fprintln(tw, "\t\t\t\t\t")
	}
	for _, def := range perLayer {
		if v, have := rep.Layers[def.name]; have {
			fmt.Fprintf(tw, "layer pass\t%s\t%.6g\t%s\t\t\n", def.name, v, def.unit)
		}
	}
	tw.Flush()
}

func formatCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}

// agreeFailures lists the end-to-end metrics whose run-to-run spread exceeds
// their bound.
func agreeFailures(rep *suiteReport) []string {
	var out []string
	for _, w := range rep.Workloads {
		for _, def := range endToEnd {
			m, have := w.EndToEnd[def.name]
			if have && m.Spread != nil && def.bound > 0 && *m.Spread > def.bound {
				out = append(out, fmt.Sprintf("%s %s: spread %.4f over %d runs exceeds bound %g", w.Name, def.name, *m.Spread, len(m.Runs), def.bound))
			}
		}
	}
	return out
}

// compareRow is one (workload, end-to-end metric) pair of two reports.
type compareRow struct {
	workload, metric, unit string
	old, cur               float64
	worse                  float64 // relative to old; positive is worse
	bound, spread          float64
	verdict                string
}

// compareReports pairs every end-to-end metric of every workload present in
// both reports.
func compareReports(old, cur *suiteReport) []compareRow {
	var rows []compareRow
	for _, ow := range old.Workloads {
		i := -1
		for j := range cur.Workloads {
			if cur.Workloads[j].Name == ow.Name {
				i = j
			}
		}
		if i < 0 {
			continue
		}
		for _, def := range endToEnd {
			om, have1 := ow.EndToEnd[def.name]
			cm, have2 := cur.Workloads[i].EndToEnd[def.name]
			if !have1 || !have2 {
				continue
			}
			spread := 0.0
			for _, s := range []*float64{om.Spread, cm.Spread} {
				if s != nil && *s > spread {
					spread = *s
				}
			}
			rows = append(rows, compareRow{
				workload: ow.Name, metric: def.name, unit: def.unit,
				old: om.Value, cur: cm.Value,
				worse: worsening(om.Value, cm.Value, def.higher),
				bound: def.bound, spread: spread,
				verdict: verdict(om.Value, cm.Value, def.higher, def.bound, spread),
			})
		}
	}
	return rows
}

// printCompare prints one row per pair and reports whether any regressed.
func printCompare(out io.Writer, rows []compareRow) (regressed bool) {
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tworse by\tof base\tbound\tspread\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.2f%%\t%.6g\t%g\t%.4f\t%s\n",
			r.workload, r.metric, r.old, r.cur, r.unit, 100*r.worse, r.old, r.bound, r.spread, r.verdict)
		regressed = regressed || r.verdict == verdictRegressed
	}
	tw.Flush()
	return regressed
}
