package db

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"astore/internal/core"
	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/schema"
	"astore/internal/sql"
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

// TestSegmentedMatchesFlatThroughDB runs the star queries through a flat
// and a segmented DB and requires both to return the oracle's answers over
// the flat twin: the acceptance's "identical results vs. unpruned" clause
// at the serving layer.
func TestSegmentedMatchesFlatThroughDB(t *testing.T) {
	testutil.Matrix{
		Queries:  testutil.StarQueries(),
		Fixtures: []testutil.Fixture{testutil.Star(11, 4000, 0)},
		Targets: []testutil.Target{
			dbTarget("flat", core.Options{}, nil),
			dbTarget("segmented", core.Options{SegmentRows: 512, Workers: 2}, func(d *DB, _ testutil.Run, _ core.Stats) error {
				if d.Stats().SegmentsTotal == 0 {
					return fmt.Errorf("db stats recorded no segments")
				}
				return nil
			}),
		},
		Render: sql.Render,
		Tol:    1e-9,
	}.Run(t)
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
	// Group by f_quantity, a root numeric column with values 1..50.
	q := query.New("byqty").
		GroupByCols("f_quantity").
		Agg(expr.CountStar("n")).
		OrderAsc("f_quantity")
	stale := dbTarget("", core.Options{SegmentRows: 128}, func(d *DB, r testutil.Run, _ core.Stats) error {
		if r.Written && d.Stats().PlanStale == 0 {
			return fmt.Errorf("no stale recompile after an out-of-range append")
		}
		return nil
	})
	testutil.Matrix{
		Queries:  []*query.Query{q},
		Fixtures: []testutil.Fixture{testutil.Star(9, 1000, 0)},
		Targets:  []testutil.Target{stale},
		Writes: []testutil.Write{{Name: "append", Apply: func(fact *storage.Table) error {
			// A row with quantity far outside the compiled range.
			row := factRow(0, 1, 2, 100)
			row["f_quantity"] = int32(500)
			_, err := fact.Insert(row)
			return err
		}}},
		Render: sql.Render,
	}.Run(t)
}

// TestSegmentedPruningThroughDB: a selective predicate over clustered data
// skips segments end-to-end through the DB layer (acceptance: a query with
// a selective dimension predicate demonstrably skips segments), with the
// oracle's results over the flat twin.
func TestSegmentedPruningThroughDB(t *testing.T) {
	build := func() *storage.Table {
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
		return fact
	}
	q := query.New("sel-year").
		Where(expr.IntEq("d_year", 1992)).
		Agg(expr.CountStar("n"), expr.SumOf(expr.C("f_val"), "sum"))
	pruned := dbTarget("", core.Options{SegmentRows: 250}, func(d *DB, _ testutil.Run, st core.Stats) error {
		if cum := d.Stats(); st.SegmentsPruned == 0 || cum.SegmentsPruned == 0 || cum.SegmentsTotal == 0 {
			return fmt.Errorf("SegmentsPruned = %d of %d, cumulative %+v: want > 0 and threaded", st.SegmentsPruned, st.SegmentsTotal, cum)
		}
		return nil
	})
	testutil.Matrix{
		Queries:  []*query.Query{q},
		Fixtures: []testutil.Fixture{testutil.Sealed("", 0, build)},
		Targets:  []testutil.Target{pruned},
		Render:   sql.Render,
		Tol:      1e-9,
	}.Run(t)
}

// TestSegmentedDimensionRefused: an AIR hop indexes a dimension as one
// contiguous array, so a referenced table that seals segments is refused
// with schema.ErrSegmentedDimension — by Open when it seals beforehand, by
// the query when it seals afterwards — and no pin is left behind.
func TestSegmentedDimensionRefused(t *testing.T) {
	build := func() (*storage.Database, *storage.Table, *storage.Table) {
		dim := storage.NewTable("dim")
		dim.MustAddColumn("d_name", storage.NewStrCol([]string{"a", "b", "c", "d", "e"}))
		fact := storage.NewTable("fact")
		fact.MustAddColumn("f_dk", storage.NewInt32Col([]int32{0, 1, 2, 3, 4, 4, 0}))
		fact.MustAddColumn("f_v", storage.NewInt64Col([]int64{1, 2, 3, 4, 5, 6, 7}))
		fact.MustAddFK("f_dk", dim)
		cat := storage.NewDatabase()
		cat.MustAdd(dim)
		cat.MustAdd(fact)
		return cat, dim, fact
	}
	const text = `SELECT d_name, sum(f_v) FROM fact GROUP BY d_name`

	cat, dim, fact := build()
	if err := dim.SetSegmentTarget(2); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cat, core.Options{}); !errors.Is(err, schema.ErrSegmentedDimension) {
		t.Fatalf("Open over a segmented dimension: err = %v, want ErrSegmentedDimension", err)
	}
	for _, tab := range []*storage.Table{dim, fact} {
		if pins := tab.Pins(); pins != 0 {
			t.Errorf("table %s pins = %d after refused Open", tab.Name, pins)
		}
	}

	cat, dim, fact = build()
	d, err := Open(cat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PrepareSQL(text); err != nil {
		t.Fatal(err)
	}
	if err := dim.SetSegmentTarget(2); err != nil {
		t.Fatal(err)
	}
	st, err := sql.ParseStatement(text)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background(), st.Query); !errors.Is(err, schema.ErrSegmentedDimension) {
		t.Fatalf("query over a dimension segmented after Open: err = %v, want ErrSegmentedDimension", err)
	}
	for _, tab := range []*storage.Table{dim, fact} {
		if pins := tab.Pins(); pins != 0 {
			t.Errorf("table %s pins = %d after refused query", tab.Name, pins)
		}
	}
}
