// Command astore-bench regenerates the tables and figures of the paper's
// evaluation section. Each experiment is addressed by its paper id:
//
//	astore-bench -list
//	astore-bench -exp table5 -sf 0.1
//	astore-bench -exp all -sf 0.05 -workers 2 -runs 3
//	astore-bench -exp table5 -sf 0.1 -json > table5.json
//
// Absolute times depend on the host and the scale factor; the shapes (who
// wins, by what factor, where crossovers fall) are the reproduction target.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"astore/internal/bench"
)

// jsonOutput is the machine-readable form of a bench run.
type jsonOutput struct {
	Config      bench.Config     `json:"config"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	ID      string          `json:"id"`
	Title   string          `json:"title"`
	Reports []*bench.Report `json:"reports"`
}

func main() {
	var known []string
	for _, e := range bench.Experiments() {
		known = append(known, e.ID)
	}
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment ids ("+strings.Join(known, ", ")+") or 'all'")
		sf      = flag.Float64("sf", 0.1, "benchmark scale factor (paper: 100)")
		workers = flag.Int("workers", 1, "engine worker threads (paper: 32)")
		runs    = flag.Int("runs", 3, "repetitions per measurement; minimum is reported")
		seed    = flag.Int64("seed", 1, "data generation seed")
		list    = flag.Bool("list", false, "list experiments and exit")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		asJSON  = flag.Bool("json", false, "emit one JSON document with every report")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := bench.Config{SF: *sf, Workers: *workers, Runs: *runs, Seed: *seed}
	ids := known
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	out := jsonOutput{Config: cfg}
	for _, id := range ids {
		e, ok := bench.Find(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "astore-bench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		// Isolate experiments from each other's heap history.
		runtime.GC()
		debug.FreeOSMemory()
		if !*asJSON {
			fmt.Printf("# %s — %s\n", e.ID, e.Title)
		}
		reports, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "astore-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *asJSON {
			out.Experiments = append(out.Experiments, jsonExperiment{
				ID: e.ID, Title: e.Title, Reports: reports,
			})
			continue
		}
		for _, r := range reports {
			if *csv {
				fmt.Printf("# %s\n%s\n", r.ID, r.CSV())
			} else {
				fmt.Println(r.Format())
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "astore-bench:", err)
			os.Exit(1)
		}
	}
}
