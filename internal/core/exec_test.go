package core

import (
	"fmt"
	"testing"

	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/sql"
	"astore/internal/storage"
	"astore/internal/testutil"
)

// TestPartitionsPerWorker: results must be identical no matter how the fact
// table is horizontally partitioned. The morsel count is the larger of
// Workers × partitionsPerWorker and the batch count, so the sweep over both
// knobs moves it from one morsel per worker to one morsel per row.
func TestPartitionsPerWorker(t *testing.T) {
	q := query.New("q").
		Where(expr.StrEq("c_region", "EUROPE")).
		GroupByCols("d_year").
		Agg(expr.SumOf(expr.C("f_revenue"), "rev")).
		OrderAsc("d_year")
	var targets []testutil.Target
	for _, batch := range []int{1, 7, 256, 1 << 16} {
		for _, workers := range []int{1, 3, 8} {
			targets = append(targets, engineTarget(fmt.Sprintf("batch=%d/w%d", batch, workers), Options{Workers: workers, BatchRows: batch}, nil))
		}
	}
	matrix([]*query.Query{q}, testutil.Star(41, 3000, 0), targets...).Run(t)
}

// TestEngineOverDatabaseSnapshot: an engine opened on a frozen catalog keeps
// returning the pre-mutation result while the live tables change.
func TestEngineOverDatabaseSnapshot(t *testing.T) {
	fact := testutil.BuildStar(43, 1000)
	db := storage.NewDatabase()
	db.MustAdd(fact)
	for _, col := range []string{"f_dk", "f_ck", "f_pk"} {
		db.MustAdd(fact.FK(col))
	}

	q := query.New("q").
		GroupByCols("c_region").
		Agg(expr.CountStar("n"), expr.SumOf(expr.C("f_revenue"), "rev")).
		OrderAsc("c_region")

	liveEng, err := New(fact, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := liveEng.Run(q)
	if err != nil {
		t.Fatal(err)
	}

	snap, release := db.Snapshot()
	defer release()
	snapEng, err := New(snap.Table("fact"), Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the live schema: delete fact rows, update a dimension value.
	for r := 0; r < 100; r++ {
		if err := fact.Delete(r); err != nil {
			t.Fatal(err)
		}
	}
	cust := fact.FK("f_ck")
	if err := cust.Update(0, "c_region", "MOON"); err != nil {
		t.Fatal(err)
	}

	got, err := snapEng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Diff(before, got, 1e-9); err != nil {
		t.Fatalf("snapshot engine saw live mutations: %v", err)
	}
	after, err := liveEng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Diff(before, after, 1e-9); err == nil {
		t.Fatal("live engine did not see mutations")
	}
}

// TestFastPathForms covers the SUM loop of every recognized form in sumOf
// (column, product, difference, one-minus-product) over several operand
// type pairings against the oracle.
func TestFastPathForms(t *testing.T) {
	build := func() *storage.Table {
		n := 500
		grp, i32a, i32b := make([]int32, n), make([]int32, n), make([]int32, n)
		i64a, i64b := make([]int64, n), make([]int64, n)
		f64a, f64b := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			grp[i] = int32(i % 4)
			i32a[i] = int32(i % 97)
			i32b[i] = int32(i % 11)
			i64a[i] = int64(i * 3)
			i64b[i] = int64(i % 1000)
			f64a[i] = float64(i) / 7
			f64b[i] = float64(i%100) / 100
		}
		fact := storage.NewTable("f")
		fact.MustAddColumn("g", storage.NewInt32Col(grp))
		fact.MustAddColumn("i32a", storage.NewInt32Col(i32a))
		fact.MustAddColumn("i32b", storage.NewInt32Col(i32b))
		fact.MustAddColumn("i64a", storage.NewInt64Col(i64a))
		fact.MustAddColumn("i64b", storage.NewInt64Col(i64b))
		fact.MustAddColumn("f64a", storage.NewFloat64Col(f64a))
		fact.MustAddColumn("f64b", storage.NewFloat64Col(f64b))
		return fact
	}
	c := expr.C
	var queries []*query.Query
	for name, e := range map[string]expr.NumExpr{
		"col-i32":          c("i32a"),
		"col-i64":          c("i64a"),
		"col-f64":          c("f64a"),
		"mul-i64-i32":      expr.Mul(c("i64a"), c("i32b")),
		"mul-i64-i64":      expr.Mul(c("i64a"), c("i64b")),
		"mul-i32-i32":      expr.Mul(c("i32a"), c("i32b")),
		"mul-f64-f64":      expr.Mul(c("f64a"), c("f64b")),
		"sub-i64-i64":      expr.Subtract(c("i64a"), c("i64b")),
		"sub-i32-i32":      expr.Subtract(c("i32a"), c("i32b")),
		"oneminus-f64-f64": expr.Mul(c("f64a"), expr.Subtract(expr.K(1), c("f64b"))),
		"oneminus-i64-f64": expr.Mul(c("i64a"), expr.Subtract(expr.K(1), c("f64b"))),
		"generic-add":      expr.Add(c("i64a"), c("i64b")),
		"generic-div":      expr.Div(c("f64a"), expr.K(2)),
	} {
		queries = append(queries, query.New(name).GroupByCols("g").Agg(expr.SumOf(e, "s")).OrderAsc("g"))
	}
	matrix(queries, testutil.Sealed("", 0, build), engineTarget("", Options{Variant: ColWisePFG}, nil)).Run(t)
}

// TestEmptyTableQueries: zero-row fact tables execute cleanly.
func TestEmptyTableQueries(t *testing.T) {
	build := func() *storage.Table {
		dim := storage.NewTable("d")
		dim.MustAddColumn("name", storage.NewStrCol([]string{"a"}))
		fact := storage.NewTable("f")
		fact.MustAddColumn("fk", storage.NewInt32Col(nil))
		fact.MustAddColumn("v", storage.NewInt64Col(nil))
		fact.MustAddFK("fk", dim)
		return fact
	}
	testutil.Matrix{
		Queries:  []*query.Query{query.New("q").Where(expr.StrEq("name", "a")).GroupByCols("name").Agg(expr.CountStar("n"))},
		Fixtures: []testutil.Fixture{testutil.Sealed("", 0, build)},
		Targets:  variantTargets(3),
		Render:   sql.Render,
	}.Run(t)
}

// TestSelectivityOrderingObserved: the plan must schedule the most
// selective filter first regardless of declaration order.
func TestSelectivityOrderingObserved(t *testing.T) {
	fact := testutil.BuildStar(47, 500)
	eng, err := New(fact, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := query.New("q").
		Where(
			expr.IntGe("f_quantity", 1).WithSel(0.99), // declared first, nearly useless
			expr.IntEq("f_discount", 3).WithSel(0.09), // most selective
		).
		Agg(expr.CountStar("n"))
	pl, err := eng.plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.filters) != 2 {
		t.Fatalf("filters = %d", len(pl.filters))
	}
	if pl.filters[0].root == nil || pl.filters[0].root.pred.Col != "f_discount" {
		t.Errorf("most selective filter not first: %+v", pl.filters[0])
	}
}
