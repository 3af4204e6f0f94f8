package astore_test

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"astore"
	"astore/internal/datagen/ssb"
	"astore/internal/query"
	"astore/internal/storage"
)

// TestOpenDBQuickstart exercises the documented DB-first flow end to end:
// catalog, OpenDB, SQL routing, prepared re-execution, and writer
// concurrency through the facade.
func TestOpenDBQuickstart(t *testing.T) {
	dim := astore.NewTable("color")
	dim.MustAddColumn("name", astore.NewStrCol([]string{"red", "green"}))

	fact := astore.NewTable("sales")
	fact.MustAddColumn("color_fk", astore.NewInt32Col([]int32{0, 1, 0}))
	fact.MustAddColumn("amount", astore.NewInt64Col([]int64{10, 20, 30}))
	fact.MustAddFK("color_fk", dim)

	catalog := astore.NewDatabase()
	catalog.MustAdd(fact)
	catalog.MustAdd(dim)

	db, err := astore.OpenDB(catalog, astore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if facts := db.Facts(); len(facts) != 1 || facts[0] != "sales" {
		t.Fatalf("Facts() = %v", facts)
	}

	ctx := context.Background()
	stmt, err := db.PrepareSQL(
		`SELECT name, sum(amount) AS total FROM sales GROUP BY name ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0].Keys[0].Str != "green" || res.Rows[0].Aggs[0] != 20 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if !strings.Contains(res.Format(), "total") {
		t.Error("Format missing header")
	}

	// Re-execution hits the plan cache.
	if _, err := stmt.Exec(ctx); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.PlanHits == 0 {
		t.Errorf("no plan-cache hits: %+v", st)
	}

	// A fact-table write is visible to the next Exec, which still reuses
	// the cached plan.
	if _, err := fact.Insert(map[string]any{"color_fk": int32(1), "amount": int64(5)}); err != nil {
		t.Fatal(err)
	}
	res, err = stmt.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Aggs[0] != 25 {
		t.Fatalf("green total after insert = %v", res.Rows[0].Aggs[0])
	}
	if st := db.Stats(); st.PlanStale != 0 {
		t.Errorf("stats after write: %+v", st)
	}

	// A cancelled context fails fast and leaves no pins behind.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := stmt.Exec(cctx); err != context.Canceled {
		t.Fatalf("cancelled exec err = %v", err)
	}
	if pins := fact.Pins(); pins != 0 {
		t.Errorf("fact pins = %d", pins)
	}
}

// TestPreparedFasterThanCold asserts the acceptance criterion: repeated
// execution of a Prepared SSB query (plan-cache hits) outruns the cold
// path, the fact's Engine.Run, which replans — rebuilding predicate and
// group vectors — on every call. SSB Q2.3 with a parallel scan makes the gap structural
// (planning is serial and roughly half of a cold run), and comparing
// medians of interleaved rounds makes the comparison robust to scheduler
// noise.
func TestPreparedFasterThanCold(t *testing.T) {
	data, _ := benchData(t)
	db, err := astore.OpenDB(data.DB, astore.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := ssbQuery(t, "Q2.3")
	ctx := context.Background()
	eng := db.Engine("lineorder")

	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	// Warm both paths.
	if _, err := p.Exec(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(q); err != nil {
		t.Fatal(err)
	}

	const rounds, perRound = 15, 4
	timeBatch := func(run func() error) time.Duration {
		t0 := time.Now()
		for i := 0; i < perRound; i++ {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(t0)
	}
	prepared := make([]time.Duration, 0, rounds)
	cold := make([]time.Duration, 0, rounds)
	for r := 0; r < rounds; r++ {
		prepared = append(prepared, timeBatch(func() error {
			_, err := p.Exec(ctx)
			return err
		}))
		cold = append(cold, timeBatch(func() error {
			_, err := eng.Run(q)
			return err
		}))
	}
	medP, medC := median(prepared), median(cold)
	t.Logf("median round: prepared %v vs cold %v (%d rounds of %d)", medP, medC, rounds, perRound)
	if raceEnabled {
		// Race instrumentation inflates the scan far more than planning,
		// burying the structural gap; the uninstrumented run asserts it.
		t.Log("race detector enabled; skipping the latency comparison")
	} else if medP >= medC {
		t.Errorf("prepared re-execution (median %v) not faster than cold Engine.Run (median %v)", medP, medC)
	}
	st := db.Stats()
	if st.PlanHits < rounds*perRound {
		t.Errorf("plan-cache hits = %d, want >= %d", st.PlanHits, rounds*perRound)
	}
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func ssbQuery(tb testing.TB, name string) *query.Query {
	tb.Helper()
	for _, q := range ssb.Queries() {
		if q.Name == name {
			return q
		}
	}
	tb.Fatalf("no SSB query %q", name)
	return nil
}

// BenchmarkDBPreparedExec measures prepared re-execution (plan-cache hit +
// snapshot pin + parallel scan) of SSB Q2.3, on an all-tail fact and on a
// segmented one (about 29 sealed segments at benchSF), whose every
// execution pins the sealed segments beside the tail.
func BenchmarkDBPreparedExec(b *testing.B) {
	for _, layout := range []struct {
		name    string
		segRows int
	}{
		{"tail", 0},
		{"segmented", 1 << 12},
	} {
		b.Run(layout.name, func(b *testing.B) {
			data, _ := benchData(b)
			if layout.segRows > 0 {
				// Opening with a threshold re-segments the fact: keep it
				// off the shared bench data.
				data = ssb.Generate(ssb.Config{SF: benchSF, Seed: 1})
			}
			db, err := astore.OpenDB(data.DB, astore.Options{Workers: 4, SegmentRows: layout.segRows})
			if err != nil {
				b.Fatal(err)
			}
			p, err := db.Prepare(ssbQuery(b, "Q2.3"))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Exec(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDBLiveIngestQ2_3 measures prepared re-execution of SSB Q2.3 on
// a segmented catalog while a writer appends between executions — the
// serving shape the segmented layout is built for: appends land in the
// fact table's mutable tail and the cached plan keeps executing (no
// recompiles, no evictions). Compare with BenchmarkDBPreparedExec (no
// ingest) for the cost of live ingest, and with the flat variant below for
// what append-stable plans buy.
func BenchmarkDBLiveIngestQ2_3(b *testing.B) {
	for _, layout := range []struct {
		name    string
		segRows int
	}{
		{"segmented", 1 << 14},
		{"flat", 0},
	} {
		b.Run(layout.name, func(b *testing.B) {
			data := ssb.Generate(ssb.Config{SF: benchSF, Seed: 1})
			db, err := astore.OpenDB(data.DB, astore.Options{Workers: 4, SegmentRows: layout.segRows})
			if err != nil {
				b.Fatal(err)
			}
			p, err := db.Prepare(ssbQuery(b, "Q2.3"))
			if err != nil {
				b.Fatal(err)
			}
			row := map[string]any{
				"lo_custkey": 0, "lo_suppkey": 0, "lo_partkey": 0, "lo_orderdate": 0,
				"lo_quantity": 1, "lo_discount": 0, "lo_extendedprice": int64(100),
				"lo_ordtotalprice": int64(100), "lo_revenue": int64(100),
				"lo_supplycost": int64(10), "lo_tax": 0,
			}
			ctx := context.Background()
			if _, err := p.Exec(ctx); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := data.Lineorder.Insert(row); err != nil {
					b.Fatal(err)
				}
				if _, err := p.Exec(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := db.Stats()
			b.ReportMetric(float64(st.PlanStale), "recompiles")
			b.ReportMetric(float64(st.SegmentsPruned), "segs_pruned")
		})
	}
}

// BenchmarkDBColdRun measures uncached planning on the same query: the
// fact's Engine.Run pins a view, resolves the schema and plans in full on
// every execution.
func BenchmarkDBColdRun(b *testing.B) {
	data, _ := benchData(b)
	db, err := astore.OpenDB(data.DB, astore.Options{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	q := ssbQuery(b, "Q2.3")
	eng := db.Engine("lineorder")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestForeignKeyWritesChecked: Insert and Update refuse a foreign key that
// is not a live row of the referenced table with storage.ErrForeignKey and
// write nothing, so the next query answers instead of indexing past the
// dimension's arrays.
func TestForeignKeyWritesChecked(t *testing.T) {
	dim := astore.NewTable("color")
	dim.MustAddColumn("name", astore.NewStrCol([]string{"red", "green"}))
	fact := astore.NewTable("sales")
	fact.MustAddColumn("fk", astore.NewInt32Col([]int32{0, 1, 0}))
	fact.MustAddColumn("amount", astore.NewInt64Col([]int64{10, 20, 30}))
	fact.MustAddFK("fk", dim)
	catalog := astore.NewDatabase()
	catalog.MustAdd(fact)
	catalog.MustAdd(dim)
	db, err := astore.OpenDB(catalog, astore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fact.Update(0, "fk", int32(7)); !errors.Is(err, storage.ErrForeignKey) {
		t.Fatalf("fk 7 into a 2-row dimension: err = %v, want ErrForeignKey", err)
	}
	if row, err := dim.Insert(map[string]any{"name": "blue"}); err != nil || dim.Delete(row) != nil {
		t.Fatal(row, err)
	}
	version := fact.DataVersion()
	for name, write := range map[string]func() error{
		"update past the end": func() error { return fact.Update(0, "fk", int32(7)) },
		"update negative":     func() error { return fact.Update(1, "fk", int64(-1)) },
		"update deleted row":  func() error { return fact.Update(0, "fk", int32(2)) },
		"insert past the end": func() error {
			_, err := fact.Insert(map[string]any{"fk": int32(3), "amount": int64(1)})
			return err
		},
		"insert deleted row": func() error {
			_, err := fact.Insert(map[string]any{"fk": int64(2), "amount": int64(1)})
			return err
		},
	} {
		if err := write(); !errors.Is(err, storage.ErrForeignKey) {
			t.Errorf("%s: err = %v, want ErrForeignKey", name, err)
		}
	}
	if v, n := fact.DataVersion(), fact.NumRows(); v != version || n != 3 {
		t.Fatalf("refused writes moved the table: version %d → %d, %d rows", version, v, n)
	}
	res, err := db.RunSQL(context.Background(), `SELECT name, sum(amount) AS total FROM sales GROUP BY name ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0].Aggs[0] != 20 || res.Rows[1].Aggs[0] != 40 {
		t.Fatalf("rows = %+v", res.Rows)
	}
}
