package db

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/sql"
	"astore/internal/storage"
	"astore/internal/testutil"
)

// starCatalog returns a catalog holding the testutil star schema.
func starCatalog(seed int64, nFact int) (*storage.Database, *storage.Table) {
	fact := testutil.BuildStar(seed, nFact)
	cat := storage.NewDatabase()
	cat.MustAdd(fact)
	for _, ref := range fact.FKs() {
		cat.MustAdd(ref)
	}
	return cat, fact
}

func sumRevenueByRegion() *query.Query {
	return query.New("q").
		GroupByCols("c_region").
		Agg(expr.SumOf(expr.C("f_revenue"), "rev"), expr.CountStar("n")).
		OrderAsc("c_region")
}

func TestOpenRegistersFactTables(t *testing.T) {
	cat, _ := starCatalog(1, 500)
	d, err := Open(cat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Facts(); len(got) != 1 || got[0] != "fact" {
		t.Fatalf("Facts() = %v", got)
	}
	if d.Engine("fact") == nil {
		t.Fatal("Engine(fact) = nil")
	}

	// A catalog where every table is referenced has no entry point.
	a, b := storage.NewTable("a"), storage.NewTable("b")
	a.MustAddColumn("x", storage.NewInt32Col([]int32{0}))
	b.MustAddColumn("y", storage.NewInt32Col([]int32{0}))
	a.MustAddFK("x", b)
	b.MustAddFK("y", a)
	bad := storage.NewDatabase()
	bad.MustAdd(a)
	bad.MustAdd(b)
	if _, err := Open(bad, core.Options{}); err == nil {
		t.Fatal("cyclic catalog opened")
	}
}

func TestRunMatchesEngine(t *testing.T) {
	cat, fact := starCatalog(2, 2000)
	d, err := Open(cat, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(fact, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range testutil.StarQueries() {
		want, err := eng.Run(q)
		if err != nil {
			t.Fatalf("%s: engine: %v", q.Name, err)
		}
		got, err := d.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: db: %v", q.Name, err)
		}
		if err := query.Diff(want, got, 1e-9); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
	}
	if pins := fact.Pins(); pins != 0 {
		t.Errorf("fact pins = %d after runs", pins)
	}
}

func TestRoutingByColumns(t *testing.T) {
	// Two fact tables sharing one dimension.
	dim := storage.NewTable("city")
	dim.MustAddColumn("city_name", storage.NewStrCol([]string{"ams", "bjs"}))
	sales := storage.NewTable("sales")
	sales.MustAddColumn("s_city", storage.NewInt32Col([]int32{0, 1, 1}))
	sales.MustAddColumn("s_amount", storage.NewInt64Col([]int64{1, 2, 3}))
	sales.MustAddFK("s_city", dim)
	returns := storage.NewTable("returns")
	returns.MustAddColumn("r_city", storage.NewInt32Col([]int32{0, 0}))
	returns.MustAddColumn("r_amount", storage.NewInt64Col([]int64{5, 7}))
	returns.MustAddFK("r_city", dim)
	cat := storage.NewDatabase()
	cat.MustAdd(dim)
	cat.MustAdd(sales)
	cat.MustAdd(returns)

	d, err := Open(cat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Facts(); len(got) != 2 {
		t.Fatalf("Facts() = %v", got)
	}

	p, err := d.Prepare(query.New("q").
		GroupByCols("city_name").
		Agg(expr.SumOf(expr.C("s_amount"), "total")))
	if err != nil {
		t.Fatal(err)
	}
	if p.Fact() != "sales" {
		t.Fatalf("routed to %s", p.Fact())
	}

	// Columns resolving on both facts are ambiguous without explicit routing.
	amb := query.New("amb").GroupByCols("city_name").Agg(expr.CountStar("n"))
	if _, err := d.Prepare(amb); err == nil {
		t.Fatal("ambiguous query routed")
	}
	p2, err := d.PrepareOn("returns", amb)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p2.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Aggs[0] != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}

	// SQL routing by FROM clause.
	p3, err := d.PrepareSQL("SELECT city_name, count(*) AS n FROM returns, city GROUP BY city_name")
	if err != nil {
		t.Fatal(err)
	}
	if p3.Fact() != "returns" {
		t.Fatalf("SQL routed to %s", p3.Fact())
	}
	// FROM with only non-fact names falls back to column routing.
	p4, err := d.PrepareSQL("SELECT city_name, sum(s_amount) AS t FROM city GROUP BY city_name")
	if err != nil {
		t.Fatal(err)
	}
	if p4.Fact() != "sales" {
		t.Fatalf("fallback routed to %s", p4.Fact())
	}
}

func TestPlanCacheHitAndInvalidation(t *testing.T) {
	cat, fact := starCatalog(3, 1000)
	d, err := Open(cat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Prepare(sumRevenueByRegion())
	if err != nil {
		t.Fatal(err)
	}
	st0 := d.Stats()
	if st0.PlanMisses != 1 || st0.Prepares != 1 {
		t.Fatalf("after prepare: %+v", st0)
	}

	want, err := p.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.PlanHits != 2 || st.PlanStale != 0 {
		t.Fatalf("after two execs: %+v", st)
	}

	// A write to the fact table is visible to the next exec and the cached
	// plan survives it: root arrays are bound per segment at execution time.
	row := 0
	if err := fact.Update(row, "f_revenue", int64(0)); err != nil {
		t.Fatal(err)
	}
	got, err := p.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st = d.Stats(); st.PlanStale != 0 || st.PlanHits != 3 {
		t.Fatalf("after fact write: %+v", st)
	}
	var wantSum, gotSum float64
	for _, r := range want.Rows {
		wantSum += r.Aggs[0]
	}
	for _, r := range got.Rows {
		gotSum += r.Aggs[0]
	}
	if gotSum >= wantSum {
		t.Fatalf("update invisible: sum %v -> %v", wantSum, gotSum)
	}

	// A write to a dimension moves the version of arrays the plan captured:
	// the cached plan is stale and the next exec recompiles against the new
	// snapshot.
	if err := fact.FK("f_ck").Update(0, "c_balance", int64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st = d.Stats(); st.PlanStale != 1 {
		t.Fatalf("after dimension write: %+v", st)
	}

	// And the recompiled plan is cached again.
	if _, err := p.Exec(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st = d.Stats(); st.PlanHits != 4 {
		t.Fatalf("after re-exec: %+v", st)
	}
	if pins := fact.Pins(); pins != 0 {
		t.Errorf("fact pins = %d", pins)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	cat, _ := starCatalog(4, 200)
	d, err := Open(cat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.SetPlanCacheCap(2)
	discountCount := func(i int) *query.Query {
		return query.New("q").
			Where(expr.IntEq("f_discount", int64(i))).
			Agg(expr.CountStar("n"))
	}
	for i := 0; i < 5; i++ {
		if _, err := d.Prepare(discountCount(i)); err != nil {
			t.Fatal(err)
		}
	}
	d.mu.Lock()
	n := d.lru.Len()
	d.mu.Unlock()
	if n != 2 {
		t.Fatalf("cache size = %d, want 2", n)
	}
	// Five distinct signatures through a cap of 2: every prepare misses, and
	// each of the last three prepares evicts the oldest entry.
	st := d.Stats()
	if st.PlanMisses != 5 || st.PlanEvictions != 3 || st.PlanHits != 0 {
		t.Fatalf("after over-full prepares: %+v", st)
	}

	// Re-preparing a resident signature hits without evicting.
	if _, err := d.Prepare(discountCount(4)); err != nil {
		t.Fatal(err)
	}
	if st = d.Stats(); st.PlanHits != 1 || st.PlanEvictions != 3 {
		t.Fatalf("after resident re-prepare: %+v", st)
	}

	// Shrinking the cap below the resident count evicts immediately.
	d.SetPlanCacheCap(1)
	d.mu.Lock()
	n = d.lru.Len()
	d.mu.Unlock()
	if n != 1 {
		t.Fatalf("cache size after shrink = %d, want 1", n)
	}
	if st = d.Stats(); st.PlanEvictions != 4 {
		t.Fatalf("after shrink: %+v", st)
	}
}

// countdownCtx is a context whose Err flips to Canceled after n checks —
// a deterministic way to cancel exactly at a scan-batch boundary.
type countdownCtx struct {
	context.Context
	mu sync.Mutex
	n  int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n--
	if c.n <= 0 {
		return context.Canceled
	}
	return nil
}

func TestCancellationReleasesPins(t *testing.T) {
	cat, fact := starCatalog(5, 50_000)
	// Tiny batches so one query crosses many cancellation checkpoints.
	d, err := Open(cat, core.Options{BatchRows: 1024})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Prepare(sumRevenueByRegion())
	if err != nil {
		t.Fatal(err)
	}

	// Cancelled before execution: fails fast.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Exec(done); err != context.Canceled {
		t.Fatalf("pre-cancelled exec: err = %v", err)
	}

	// Cancelled mid-scan: the countdown survives the entry check and the
	// first batches, then trips at a batch boundary.
	base, stop := context.WithCancel(context.Background())
	defer stop()
	ctx := &countdownCtx{Context: base, n: 5}
	if _, err := p.Exec(ctx); err != context.Canceled {
		t.Fatalf("mid-scan cancel: err = %v", err)
	}

	// Same through the cold path and the row-wise variant.
	ctx = &countdownCtx{Context: base, n: 5}
	if _, err := d.Run(ctx, sumRevenueByRegion()); err != context.Canceled {
		t.Fatalf("cold cancel: err = %v", err)
	}
	dRow, err := Open(cat, core.Options{Variant: core.RowWise, BatchRows: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ctx = &countdownCtx{Context: base, n: 5}
	if _, err := dRow.Run(ctx, sumRevenueByRegion()); err != context.Canceled {
		t.Fatalf("row-wise cancel: err = %v", err)
	}

	// Parallel workers observe cancellation too.
	dPar, err := Open(cat, core.Options{Workers: 4, BatchRows: 512})
	if err != nil {
		t.Fatal(err)
	}
	ctx = &countdownCtx{Context: base, n: 8}
	if _, err := dPar.Run(ctx, sumRevenueByRegion()); err != context.Canceled {
		t.Fatalf("parallel cancel: err = %v", err)
	}

	for _, tab := range append([]*storage.Table{fact}, dims(fact)...) {
		if pins := tab.Pins(); pins != 0 {
			t.Errorf("table %s pins = %d after cancellations", tab.Name, pins)
		}
	}

	// A successful run still works after all that.
	if _, err := p.Exec(context.Background()); err != nil {
		t.Fatal(err)
	}
	if pins := fact.Pins(); pins != 0 {
		t.Errorf("fact pins = %d", pins)
	}
}

// TestPlanFailureReleasesPins: a statement that parses and routes but fails
// to compile has already pinned a snapshot of the fact table and every
// dimension; each failure path must release that pin, both at prepare and
// on the cold Run path.
func TestPlanFailureReleasesPins(t *testing.T) {
	data := ssb.Generate(ssb.Config{SF: 0.002, Seed: 1})
	d, err := Open(data.DB, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{
		`SELECT no_such_col, sum(lo_revenue) AS rev FROM lineorder GROUP BY no_such_col`,
		`SELECT sum(c_name) AS s FROM lineorder`,
		`SELECT sum(lo_revenue) AS rev FROM lineorder WHERE no_such_col = 3`,
	} {
		if _, err := d.PrepareSQL(text); err == nil {
			t.Fatalf("%s: prepared without error", text)
		}
		st, err := sql.ParseStatement(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if _, err := d.Run(context.Background(), st.Query); err == nil {
			t.Fatalf("%s: ran without error", text)
		}
	}
	for _, tab := range append([]*storage.Table{data.Lineorder}, dims(data.Lineorder)...) {
		if pins := tab.Pins(); pins != 0 {
			t.Errorf("table %s pins = %d after failed plans", tab.Name, pins)
		}
	}
}

func dims(fact *storage.Table) []*storage.Table {
	var out []*storage.Table
	for _, ref := range fact.FKs() {
		out = append(out, ref)
	}
	return out
}

// TestConcurrentReadersAndWriters drives queries through the DB while a
// writer appends, updates, and deletes on the fact table. Every live fact
// row always carries measure v == 1, so any result consistent with *some*
// snapshot satisfies sum == count in every group; a reader observing a
// torn write or a half-applied insert would break the invariant. Run under
// -race this also proves the pin/copy-on-write synchronization.
func TestConcurrentReadersAndWriters(t *testing.T) {
	dim := storage.NewTable("city")
	names := storage.NewDictCol(storage.NewDict())
	const nCity = 8
	for i := 0; i < nCity; i++ {
		names.Append(fmt.Sprintf("city-%d", i))
	}
	dim.MustAddColumn("city_name", names)

	const nStart = 4000
	fk := make([]int32, nStart)
	v := make([]int64, nStart)
	for i := range fk {
		fk[i] = int32(i % nCity)
		v[i] = 1
	}
	fact := storage.NewTable("visits")
	fact.MustAddColumn("vi_city", storage.NewInt32Col(fk))
	fact.MustAddColumn("vi_v", storage.NewInt64Col(v))
	fact.MustAddFK("vi_city", dim)

	cat := storage.NewDatabase()
	cat.MustAdd(dim)
	cat.MustAdd(fact)
	d, err := Open(cat, core.Options{Workers: 2, BatchRows: 512})
	if err != nil {
		t.Fatal(err)
	}

	q := query.New("by-city").
		GroupByCols("city_name").
		Agg(expr.SumOf(expr.C("vi_v"), "s"), expr.CountStar("n")).
		OrderAsc("city_name")
	p, err := d.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers   = 3
		readIters = 150
		writeOps  = 3000
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	// Writer: single goroutine, so it knows exactly which rows are live.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		live := make([]int, 0, nStart+writeOps)
		for i := 0; i < nStart; i++ {
			live = append(live, i)
		}
		for op := 0; op < writeOps; op++ {
			switch rng.Intn(3) {
			case 0: // append (or slot-reusing insert)
				row, err := fact.Insert(map[string]any{
					"vi_city": int32(rng.Intn(nCity)), "vi_v": int64(1),
				})
				if err != nil {
					errs <- err
					return
				}
				live = append(live, row)
			case 1: // re-route a live row to another city
				r := live[rng.Intn(len(live))]
				if err := fact.Update(r, "vi_city", int32(rng.Intn(nCity))); err != nil {
					errs <- err
					return
				}
			default: // delete a live row (keep a floor so groups stay busy)
				if len(live) < nStart/2 {
					continue
				}
				i := rng.Intn(len(live))
				if err := fact.Delete(live[i]); err != nil {
					errs <- err
					return
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
	}()

	// Readers: one on the prepared statement (hitting and invalidating the
	// plan cache), the rest on the cold path.
	check := func(res *query.Result) error {
		var total float64
		for _, r := range res.Rows {
			if r.Aggs[0] != r.Aggs[1] {
				return fmt.Errorf("group %v: sum %v != count %v (torn snapshot)",
					r.Keys[0], r.Aggs[0], r.Aggs[1])
			}
			total += r.Aggs[1]
		}
		if total > nStart+writeOps {
			return fmt.Errorf("count %v exceeds all rows ever inserted", total)
		}
		return nil
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(prepared bool) {
			defer wg.Done()
			for i := 0; i < readIters; i++ {
				var res *query.Result
				var err error
				if prepared {
					res, err = p.Exec(context.Background())
				} else {
					res, err = d.Run(context.Background(), q)
				}
				if err != nil {
					errs <- err
					return
				}
				if err := check(res); err != nil {
					errs <- err
					return
				}
			}
		}(w == 0)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if pins := fact.Pins(); pins != 0 {
		t.Errorf("fact pins = %d after concurrent run", pins)
	}
	if pins := dim.Pins(); pins != 0 {
		t.Errorf("dim pins = %d after concurrent run", pins)
	}

	// The final state still answers exactly.
	res, err := p.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := check(res); err != nil {
		t.Fatal(err)
	}
}

// TestOpenThreadsSortKeysAndEncodings is the regression test for the
// Options.SortKeys wiring: Open segments fact tables *before* configuring
// sort keys, so the membership check must consult the schema
// (ColumnType), not the flat-column map, which is empty once segmented.
// Unknown keys are dropped silently; results must match the unclustered
// catalog after the reordering consolidation.
func TestOpenThreadsSortKeysAndEncodings(t *testing.T) {
	cat, fact := starCatalog(7, 900)
	want := mustExec(t, mustOpen(t, starOnly(t, 7, 900)), sumRevenueByRegion())

	d, err := Open(cat, core.Options{
		SegmentRows:     64,
		SortKeys:        []string{"f_dk", "no_such_col"},
		SealedEncodings: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fact.SortKeys(); len(got) != 1 || got[0] != "f_dk" {
		t.Fatalf("SortKeys() = %v, want [f_dk] (segmented tables must keep schema-resolved keys)", got)
	}
	if !fact.SealedEncodings() {
		t.Fatal("SealedEncodings not threaded")
	}
	// The re-sort pass clusters by f_dk; answers are order-independent.
	if _, err := storage.Consolidate(cat, fact); err != nil {
		t.Fatal(err)
	}
	got := mustExec(t, d, sumRevenueByRegion())
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Fatalf("reordered results diverge:\n got %v\nwant %v", got.Rows, want.Rows)
	}
}

// starOnly rebuilds an identical flat catalog for baseline answers.
func starOnly(t *testing.T, seed int64, n int) *storage.Database {
	t.Helper()
	cat, _ := starCatalog(seed, n)
	return cat
}

func mustOpen(t *testing.T, cat *storage.Database) *DB {
	t.Helper()
	d, err := Open(cat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustExec(t *testing.T, d *DB, q *query.Query) *query.Result {
	t.Helper()
	p, err := d.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}
