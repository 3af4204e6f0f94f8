package astore_test

import (
	"context"
	"testing"

	"astore"
	"astore/internal/query"
	"astore/internal/testutil"
)

// TestParseQueryThroughFacade parses SQL via the public API and checks the
// result against the builder form of the same query.
func TestParseQueryThroughFacade(t *testing.T) {
	fact := testutil.BuildStar(51, 1500)
	db, err := astore.OpenDB(testutil.Catalog(fact), astore.Options{})
	if err != nil {
		t.Fatal(err)
	}

	parsed, err := astore.ParseQuery(`
		SELECT c_region, sum(f_revenue - f_supplycost) AS profit, count(*) AS n
		FROM fact, customer
		WHERE f_ck = c_custkey
		  AND f_discount BETWEEN 2 AND 8
		  AND c_region IN ('ASIA', 'EUROPE')
		GROUP BY c_region
		ORDER BY profit DESC`)
	if err != nil {
		t.Fatal(err)
	}
	built := astore.NewQuery("built").
		Where(
			astore.IntBetween("f_discount", 2, 8),
			astore.StrIn("c_region", "ASIA", "EUROPE"),
		).
		GroupByCols("c_region").
		Agg(
			astore.SumOf(astore.Subtract(astore.C("f_revenue"), astore.C("f_supplycost")), "profit"),
			astore.CountStar("n"),
		).
		OrderDesc("profit")

	ctx := context.Background()
	got, err := db.Run(ctx, parsed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Run(ctx, built)
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Diff(want, got, 1e-9); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 2 {
		t.Fatalf("rows = %d", len(got.Rows))
	}

	if _, err := astore.ParseQuery("not sql"); err == nil {
		t.Fatal("garbage parsed")
	}
}
