// Command benchmark is the repository's one pinned benchmark: closed-loop
// HTTP workloads against astore-serve child processes, every answer verified
// against internal/baseline, plus a traced window and an in-process layer
// pass that attribute the cost to layers from outside.
//
//	benchmark -seed 1 -out report.json          the whole suite, all metrics printed by name
//	benchmark -seed 1 -agree 3 -out report.json the suite's end-to-end part three times, spreads checked
//	benchmark -compare old.json new.json        one row per (workload, end-to-end metric), non-zero on regression
//	benchmark -workload W -seed N -seconds S -trace 0|1
//	                                            one workload, one JSON result line (BENCHMARK.json's contract)
//
// run.sh builds astore-serve and passes it as -serve-bin; every mode but
// -compare needs it. See README.md for the workloads, the metric vocabulary and what each
// per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print one JSON result line: "+fmt.Sprint(workloadNames))
		seed     = flag.Int64("seed", 1, "workload seed: statement order, ad-hoc literals, appended rows")
		seconds  = flag.Float64("seconds", pinnedSeconds, "measured seconds per workload")
		trace    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		out      = flag.String("out", "", "suite: write the report to this file")
		traceOut = flag.String("trace-out", "", "write the traced windows' spans to this file, one JSON object per line")
		agree    = flag.Int("agree", 1, "suite: run the end-to-end part this many times and fail if a metric's spread exceeds its bound")
		compare  = flag.Bool("compare", false, "compare two reports: benchmark -compare old.json new.json")
		serveBin = flag.String("serve-bin", "", "the astore-serve binary to launch (run.sh builds it and passes it)")
	)
	flag.Parse()

	if *compare {
		os.Exit(mainCompare(flag.Args()))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *serveBin == "" {
		fatal(errors.New("no -serve-bin: start the benchmark through benchmark/run.sh, which builds astore-serve"))
	}
	cfg := pinnedConfig().window(*seconds)
	cfg.serveBin = *serveBin

	if *workload != "" {
		// The contract gives one run 180 s; give up, and stop the servers,
		// before that.
		ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
		code := mainContract(ctx, cfg, *workload, *seed, *trace, *traceOut)
		cancel()
		os.Exit(code)
	}
	os.Exit(mainSuite(ctx, cfg, *seed, *agree, *out, *traceOut))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// resultLine is the contract's one-line result.
type resultLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// mainContract runs one workload as BENCHMARK.json's command: tracing off it
// reports the end-to-end metrics; tracing on it splits the measured seconds
// between a tracing-off and a traced window, runs the in-process layer pass,
// and reports every per-layer metric.
func mainContract(ctx context.Context, cfg config, name string, seed int64, trace int, traceOut string) int {
	plan := runPlan{setups: 3, untraced: 1}
	if trace != 0 {
		// The layer pass takes the rest of the run's time.
		plan = runPlan{setups: 1, untraced: 0.3, traced: 0.3}
	}
	res, err := runWorkload(ctx, cfg, name, seed, plan)
	if err != nil {
		fatal(err)
	}
	line := resultLine{Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]contractMetric)}
	if trace == 0 {
		for _, n := range contractEndToEnd {
			def, _ := findDef(endToEnd, n)
			line.Metrics[n] = contractMetric{Value: res.EndToEnd[n], Unit: def.unit}
		}
	} else {
		layers, err := runLayers(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		// A metric the workload has no source for (shard.* on one node, the
		// append latencies without a writer) reads 0.
		values := make(map[string]float64)
		for _, m := range []map[string]float64{res.EndToEnd, res.PerLayer, layers} {
			for k, v := range m {
				values[k] = v
			}
		}
		for _, def := range perLayer {
			line.Metrics[def.name] = contractMetric{Value: values[def.name], Unit: def.unit}
		}
		if traceOut != "" {
			if err := writeSpans(traceOut, res.spans); err != nil {
				fatal(err)
			}
		}
	}
	for _, c := range res.Checks {
		state := "ok    "
		if !c.OK {
			state = "FAILED"
		}
		fmt.Fprintf(os.Stderr, "check %s %-40s %s\n", state, c.Name, c.Detail)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "failure:", f)
	}
	fmt.Fprintf(os.Stderr, "samples: %s\n", formatCounts(res.Samples))
	line.Correct = res.ok()
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	return 0
}

func mainSuite(ctx context.Context, cfg config, seed int64, rounds int, out, traceOut string) int {
	if rounds < 1 {
		rounds = 1
	}
	rep, ok, err := runSuite(ctx, cfg, seed, rounds, traceOut)
	if err != nil {
		fatal(err)
	}
	printReport(os.Stdout, rep)
	if out != "" {
		if err := writeReport(out, rep); err != nil {
			fatal(err)
		}
	}
	code := 0
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: a workload failed an operation, an oracle comparison or a self-check (see the check and failure rows)")
		code = 1
	}
	for _, f := range agreeFailures(rep) {
		fmt.Fprintln(os.Stderr, "benchmark: runs disagree:", f)
		code = 1
	}
	return code
}

func mainCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
		return 2
	}
	old, err := readReport(args[0])
	if err != nil {
		fatal(err)
	}
	cur, err := readReport(args[1])
	if err != nil {
		fatal(err)
	}
	if printCompare(os.Stdout, compareReports(old, cur)) {
		fmt.Fprintln(os.Stderr, "benchmark: regression beyond a bound")
		return 1
	}
	return 0
}
