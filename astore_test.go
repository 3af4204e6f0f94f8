package astore_test

import (
	"context"
	"strings"
	"testing"

	"astore"
	"astore/internal/query"
	"astore/internal/testutil"
)

// TestQuickstart exercises the documented public-API flow end to end.
func TestQuickstart(t *testing.T) {
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
	res, err := db.Run(context.Background(), astore.NewQuery("by-color").
		GroupByCols("name").
		Agg(astore.SumOf(astore.C("amount"), "total")).
		OrderAsc("name"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].Keys[0].Str != "green" || res.Rows[0].Aggs[0] != 20 {
		t.Errorf("green row = %+v", res.Rows[0])
	}
	if res.Rows[1].Keys[0].Str != "red" || res.Rows[1].Aggs[0] != 40 {
		t.Errorf("red row = %+v", res.Rows[1])
	}
	if !strings.Contains(res.Format(), "total") {
		t.Error("Format missing header")
	}
}

// TestFacadeVariantsAndPredicates runs the shared battery through the
// facade to make sure every re-exported constructor is wired correctly.
func TestFacadeVariantsAndPredicates(t *testing.T) {
	fact := testutil.BuildStar(21, 2000)
	q := astore.NewQuery("facade").
		Where(
			astore.StrIn("c_region", "ASIA", "EUROPE"),
			astore.IntBetween("f_discount", 2, 8),
			astore.IntGe("f_quantity", 5),
		).
		GroupByCols("c_region", "d_year").
		Agg(
			astore.CountStar("cnt"),
			astore.SumOf(astore.Subtract(astore.C("f_revenue"), astore.C("f_supplycost")), "profit"),
			astore.AvgOf(astore.C("f_extprice"), "avg_price"),
		).
		OrderAsc("d_year").OrderDesc("profit")
	want, err := testutil.NaiveRun(fact, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []astore.Variant{
		astore.VariantAuto, astore.VariantRowWise, astore.VariantRowWisePF,
		astore.VariantColWise, astore.VariantColWisePF, astore.VariantColWisePFG,
	} {
		db, err := astore.OpenDB(testutil.Catalog(fact), astore.Options{Variant: v, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("[%s]: %v", v, err)
		}
		if err := query.Diff(want, got, 1e-9); err != nil {
			t.Errorf("[%s]: %v", v, err)
		}
	}
}

// TestFacadeDenormalize checks the denormalization path through the facade.
func TestFacadeDenormalize(t *testing.T) {
	fact := testutil.BuildStar(22, 1000)
	wide, err := astore.Denormalize(fact)
	if err != nil {
		t.Fatal(err)
	}
	q := astore.NewQuery("q").
		Where(astore.StrEq("c_region", "ASIA")).
		GroupByCols("c_nation").
		Agg(astore.SumOf(astore.C("f_revenue"), "rev")).
		OrderDesc("rev")
	star, err := mustOpenRun(t, fact, q)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := mustOpenRun(t, wide, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Diff(star, flat, 1e-9); err != nil {
		t.Error(err)
	}
}

// mustOpenRun serves q from a DB over root and every table it reaches; the
// denormalized wide table is a one-table catalog.
func mustOpenRun(t *testing.T, root *astore.Table, q *astore.Query) (*astore.Result, error) {
	t.Helper()
	db, err := astore.OpenDB(testutil.Catalog(root), astore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db.Run(context.Background(), q)
}

// TestFacadeUpdatesAndConsolidate exercises the update/consolidation API.
func TestFacadeUpdatesAndConsolidate(t *testing.T) {
	dim := astore.NewTable("d")
	dim.MustAddColumn("name", astore.NewStrCol([]string{"a", "b", "c"}))
	fact := astore.NewTable("f")
	fact.MustAddColumn("fk", astore.NewInt32Col([]int32{0, 2, 2}))
	fact.MustAddColumn("v", astore.NewInt64Col([]int64{1, 2, 3}))
	fact.MustAddFK("fk", dim)
	catalog := astore.NewDatabase()
	catalog.MustAdd(dim)
	catalog.MustAdd(fact)

	if err := dim.Delete(1); err != nil {
		t.Fatal(err)
	}
	remap, err := astore.Consolidate(catalog, dim)
	if err != nil {
		t.Fatal(err)
	}
	if remap[2] != 1 {
		t.Fatalf("remap = %v", remap)
	}
	db, err := astore.OpenDB(catalog, astore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Run(context.Background(), astore.NewQuery("q").
		GroupByCols("name").
		Agg(astore.CountStar("n")).
		OrderAsc("name"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[1].Keys[0].Str != "c" || res.Rows[1].Aggs[0] != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
}
