// Command astore-sql is an interactive SQL shell over a generated benchmark
// catalog, served through the astore.DB API: statements are routed to the
// right fact table by their FROM clause, compiled plans are cached across
// statements (re-running a query skips planning), every execution runs
// against a copy-on-write snapshot, and Ctrl-C cancels a long scan instead
// of killing the shell.
//
//	astore-sql -schema ssb -sf 0.05
//	echo "SELECT d_year, sum(lo_revenue) AS rev FROM lineorder, date
//	      WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year" |
//	  astore-sql -schema ssb
//
// Meta commands: \q quits, \stats prints the serving counters, EXPLAIN
// prefixed to a statement prints its plan, EXPLAIN ANALYZE executes it and
// prints the timed span tree.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"astore"
	"astore/internal/datagen/ssb"
	"astore/internal/datagen/tpch"
	"astore/internal/obs"
	"astore/internal/sql"
)

func main() {
	var (
		schemaName = flag.String("schema", "ssb", "dataset: ssb or tpch")
		sf         = flag.Float64("sf", 0.05, "scale factor")
		seed       = flag.Int64("seed", 1, "generation seed")
		workers    = flag.Int("workers", 1, "engine worker threads")
	)
	flag.Parse()

	var catalog *astore.Database
	switch *schemaName {
	case "ssb":
		catalog = ssb.Generate(ssb.Config{SF: *sf, Seed: *seed}).DB
	case "tpch":
		catalog = tpch.Generate(tpch.Config{SF: *sf, Seed: *seed}).DB
	default:
		fmt.Fprintf(os.Stderr, "astore-sql: unknown schema %q\n", *schemaName)
		os.Exit(2)
	}
	db, err := astore.OpenDB(catalog, astore.Options{Workers: *workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "astore-sql:", err)
		os.Exit(1)
	}

	interactive := isTerminal()
	if interactive {
		fmt.Printf("A-Store SQL shell — %s SF=%g, fact table(s) %v\n",
			*schemaName, *sf, db.Facts())
		fmt.Println(`end statements with a blank line; prefix with EXPLAIN for the plan or EXPLAIN ANALYZE for a timed trace; \stats for counters; \q quits`)
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var stmt strings.Builder
	prompt := func() {
		if interactive {
			if stmt.Len() == 0 {
				fmt.Print("astore> ")
			} else {
				fmt.Print("   ...> ")
			}
		}
	}
	run := func(text string) {
		text = strings.TrimSpace(text)
		if text == "" {
			return
		}
		mode, rest := sql.StripExplain(text)
		text = rest
		p, err := db.PrepareSQL(text)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		if mode == sql.ExplainPlan {
			out, err := p.Explain()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fmt.Printf("routed to fact table %q\n%s", p.Fact(), out)
			return
		}
		// Ctrl-C cancels this statement at the next scan batch; the shell
		// itself stays up.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		var tr *obs.Trace
		if mode == sql.ExplainAnalyze {
			tr = obs.NewTrace()
			ctx = obs.WithTrace(ctx, tr)
		}
		t0 := time.Now()
		res, err := p.Exec(ctx)
		stop()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		if tr != nil {
			// EXPLAIN ANALYZE: the timed span tree instead of the rows.
			tr.Finish()
			fmt.Printf("routed to fact table %q\n%s", p.Fact(), tr.Format())
			fmt.Printf("(%d rows, %v)\n", len(res.Rows), time.Since(t0).Round(time.Microsecond))
			return
		}
		fmt.Print(res.Format())
		fmt.Printf("(%d rows, %v)\n", len(res.Rows), time.Since(t0).Round(time.Microsecond))
	}

	prompt()
	for in.Scan() {
		line := in.Text()
		switch strings.TrimSpace(line) {
		case `\q`:
			return
		case `\stats`:
			st := db.Stats()
			fmt.Printf("prepares %d, execs %d, plan cache: %d hits, %d misses, %d stale recompiles, %d evictions\n",
				st.Prepares, st.Execs, st.PlanHits, st.PlanMisses, st.PlanStale, st.PlanEvictions)
			prompt()
			continue
		}
		if strings.TrimSpace(line) == "" {
			run(stmt.String())
			stmt.Reset()
		} else {
			stmt.WriteString(line)
			stmt.WriteByte('\n')
			// Statements may also end with ';'.
			if strings.HasSuffix(strings.TrimSpace(line), ";") {
				run(stmt.String())
				stmt.Reset()
			}
		}
		prompt()
	}
	run(stmt.String())
}

func isTerminal() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
