package db

import (
	"context"
	"testing"

	"astore/internal/core"
	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/storage"
	"astore/internal/testutil"
)

// factRow builds an Insert value map matching the testutil star fact table.
func factRow(dk, ck, pk int32, rev int64) map[string]any {
	return map[string]any{
		"f_dk": dk, "f_ck": ck, "f_pk": pk,
		"f_quantity": int32(1), "f_discount": int32(0),
		"f_extprice": rev, "f_revenue": rev, "f_supplycost": int64(1),
		"f_frac": 0.5, "f_tag": "red",
	}
}

// TestOpenSegmentsFactTables: Options.SegmentRows makes Open convert fact
// tables (and only fact tables) to segmented storage.
func TestOpenSegmentsFactTables(t *testing.T) {
	cat, fact := starCatalog(3, 2000)
	d, err := Open(cat, core.Options{SegmentRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	if fact.SegmentTarget() == 0 {
		t.Fatal("fact table not segmented by Open")
	}
	for _, ref := range fact.FKs() {
		if ref.SegmentTarget() > 0 {
			t.Fatalf("dimension %s segmented; dimensions must stay flat", ref.Name)
		}
	}
	res, err := d.Run(context.Background(), sumRevenueByRegion())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no result rows")
	}
}

// TestSegmentedMatchesFlatThroughDB runs the same queries through a flat
// and a segmented DB built from identical data and requires identical
// results — the acceptance's "identical results vs. unpruned" clause at
// the serving layer.
func TestSegmentedMatchesFlatThroughDB(t *testing.T) {
	flatCat, _ := starCatalog(11, 4000)
	segCat, _ := starCatalog(11, 4000)
	dFlat, err := Open(flatCat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dSeg, err := Open(segCat, core.Options{SegmentRows: 512, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range testutil.StarQueries() {
		want, err := dFlat.Run(ctx, q)
		if err != nil {
			t.Fatalf("%s flat: %v", q.Name, err)
		}
		got, err := dSeg.Run(ctx, q)
		if err != nil {
			t.Fatalf("%s segmented: %v", q.Name, err)
		}
		if err := query.Diff(want, got, 1e-9); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
	}
	st := dSeg.Stats()
	if st.SegmentsTotal == 0 {
		t.Error("db stats recorded no segments")
	}
}

// TestAppendsDoNotEvictPlans is the acceptance criterion for plan
// stability: live appends to a fact table advance DataVersion while the
// cached plan keeps hitting (PlanStale and PlanEvictions stay flat),
// whether or not the table seals segments.
func TestAppendsDoNotEvictPlans(t *testing.T) {
	ctx := context.Background()
	for _, segRows := range []int{200, 0} {
		cat, fact := starCatalog(5, 3000)
		d, err := Open(cat, core.Options{SegmentRows: segRows})
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.Prepare(sumRevenueByRegion())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Exec(ctx); err != nil {
			t.Fatal(err)
		}
		base := fact.DataVersion()
		for round := 0; round < 20; round++ {
			for i := 0; i < 10; i++ {
				if _, err := fact.Insert(factRow(0, 1, 2, 100)); err != nil {
					t.Fatal(err)
				}
			}
			res, err := p.Exec(ctx)
			if err != nil {
				t.Fatal(err)
			}
			n := 0.0
			for _, r := range res.Rows {
				n += r.Aggs[1]
			}
			if want := float64(3000 + 10*(round+1)); n != want {
				t.Fatalf("segment rows %d, round %d: count(*) = %v, want %v", segRows, round, n, want)
			}
		}
		st := d.Stats()
		if adv := fact.DataVersion() - base; adv != 200 {
			t.Fatalf("segment rows %d: DataVersion advanced by %d, want 200", segRows, adv)
		}
		if st.PlanStale != 0 {
			t.Errorf("segment rows %d: PlanStale = %d, want 0 (appends must not invalidate plans)", segRows, st.PlanStale)
		}
		if st.PlanEvictions != 0 {
			t.Errorf("segment rows %d: PlanEvictions = %d, want 0", segRows, st.PlanEvictions)
		}
		if st.PlanHits < 20 {
			t.Errorf("segment rows %d: PlanHits = %d, want >= 20", segRows, st.PlanHits)
		}
		wantSealed := 0
		if segRows > 0 {
			wantSealed = 3200 / segRows
		}
		if sealed, total := fact.SegmentCounts(); sealed != wantSealed || total != sealed+1 {
			t.Errorf("segment rows %d: %d sealed / %d total segments, want %d sealed", segRows, sealed, total, wantSealed)
		}
	}
}

// TestAppendOutsideCompiledRangeRecompiles: appends that widen a root
// grouping column's value range past the compiled dense-id range must NOT
// silently corrupt the aggregation array — the plan goes stale and the
// recompiled plan sees the new group.
func TestAppendOutsideCompiledRangeRecompiles(t *testing.T) {
	cat, fact := starCatalog(9, 1000)
	d, err := Open(cat, core.Options{SegmentRows: 128})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Group by f_quantity, a root numeric column with values 1..50.
	q := query.New("byqty").
		GroupByCols("f_quantity").
		Agg(expr.CountStar("n")).
		OrderAsc("f_quantity")
	p, err := d.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Insert a row with quantity far outside the compiled range.
	row := factRow(0, 1, 2, 100)
	row["f_quantity"] = int32(500)
	if _, err := fact.Insert(row); err != nil {
		t.Fatal(err)
	}
	after, err := p.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != len(before.Rows)+1 {
		t.Fatalf("groups before=%d after=%d, want one new group", len(before.Rows), len(after.Rows))
	}
	last := after.Rows[len(after.Rows)-1]
	if got := last.Keys[0].Num; got != 500 {
		t.Fatalf("new group key = %v, want 500", last.Keys[0])
	}
	if st := d.Stats(); st.PlanStale == 0 {
		t.Error("expected a stale recompile after out-of-range append")
	}
}

// TestSegmentedPruningThroughDB: a selective predicate over clustered data
// skips segments end-to-end through the DB layer (acceptance: a query with
// a selective dimension predicate demonstrably skips segments), with
// results identical to the flat engine.
func TestSegmentedPruningThroughDB(t *testing.T) {
	build := func() *storage.Database {
		nDate, nFact := 40, 4000
		date := storage.NewTable("date")
		years := make([]int32, nDate)
		for i := range years {
			years[i] = int32(1992 + i/5)
		}
		date.MustAddColumn("d_year", storage.NewInt32Col(years))
		fact := storage.NewTable("fact")
		fk := make([]int32, nFact)
		val := make([]int64, nFact)
		for i := 0; i < nFact; i++ {
			fk[i] = int32(i * nDate / nFact) // ingest order correlates with date
			val[i] = int64(i)
		}
		fact.MustAddColumn("f_dk", storage.NewInt32Col(fk))
		fact.MustAddColumn("f_val", storage.NewInt64Col(val))
		fact.MustAddFK("f_dk", date)
		cat := storage.NewDatabase()
		cat.MustAdd(fact)
		cat.MustAdd(date)
		return cat
	}
	q := query.New("sel-year").
		Where(expr.IntEq("d_year", 1992)).
		Agg(expr.CountStar("n"), expr.SumOf(expr.C("f_val"), "sum"))
	ctx := context.Background()

	dFlat, err := Open(build(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := dFlat.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	dSeg, err := Open(build(), core.Options{SegmentRows: 250})
	if err != nil {
		t.Fatal(err)
	}
	var stats core.Stats
	p, err := dSeg.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.ExecStats(ctx, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Diff(want, got, 1e-9); err != nil {
		t.Fatalf("pruned result differs: %v", err)
	}
	if stats.SegmentsPruned == 0 {
		t.Fatalf("SegmentsPruned = 0, want > 0 (total %d)", stats.SegmentsTotal)
	}
	st := dSeg.Stats()
	if st.SegmentsPruned == 0 || st.SegmentsTotal == 0 {
		t.Errorf("db cumulative segment counters not threaded: %+v", st)
	}
}
