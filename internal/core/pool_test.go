package core

import (
	"testing"

	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/sql"
	"astore/internal/storage"
	"astore/internal/testutil"
)

// TestArrayPoolReuseKeepsResultsCorrect runs the same and different queries
// repeatedly on one engine: recycled aggregation arrays must never leak
// state between runs.
func TestArrayPoolReuseKeepsResultsCorrect(t *testing.T) {
	fact := testutil.BuildStar(31, 3000)
	eng, err := New(fact, Options{Variant: ColWisePFG, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	q1 := query.New("a").
		Where(expr.StrEq("c_region", "ASIA")).
		GroupByCols("c_nation", "d_year").
		Agg(expr.SumOf(expr.C("f_revenue"), "rev"), expr.CountStar("n"))
	q2 := query.New("b").
		GroupByCols("c_nation", "d_year"). // same shape, different filter
		Agg(expr.SumOf(expr.C("f_revenue"), "rev"), expr.CountStar("n"))

	want1, err := eng.Run(q1)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := eng.Run(q2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got1, err := eng.Run(q1)
		if err != nil {
			t.Fatal(err)
		}
		if err := query.Diff(want1, got1, 1e-9); err != nil {
			t.Fatalf("iteration %d q1: %v", i, err)
		}
		got2, err := eng.Run(q2)
		if err != nil {
			t.Fatal(err)
		}
		if err := query.Diff(want2, got2, 1e-9); err != nil {
			t.Fatalf("iteration %d q2: %v", i, err)
		}
	}
}

// TestArrayPoolConcurrentQueries hammers one engine from several goroutines
// (run with -race): pooled arrays must never be shared between in-flight
// queries.
func TestArrayPoolConcurrentQueries(t *testing.T) {
	fact := testutil.BuildStar(33, 2000)
	eng, err := New(fact, Options{Variant: Auto})
	if err != nil {
		t.Fatal(err)
	}
	q := query.New("q").
		GroupByCols("c_region", "d_year").
		Agg(expr.SumOf(expr.C("f_revenue"), "rev"))
	want, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				got, err := eng.Run(q)
				if err != nil {
					done <- err
					return
				}
				if err := query.Diff(want, got, 1e-9); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestConsolidationPreservesQueryResults is the §4.4 invariant: deleting
// dimension rows (after retargeting), consolidating, and re-running any
// query gives the oracle's result, as it did before consolidation.
func TestConsolidationPreservesQueryResults(t *testing.T) {
	build := func(consolidate bool) func() *storage.Table {
		return func() *storage.Table {
			fact := testutil.BuildStar(35, 2000)
			part := fact.FK("f_pk")
			// Retarget all fact references to part rows 10..19 onto row 0,
			// then delete those part rows.
			fk := fact.Column("f_pk").(*storage.Int32Col)
			for i, v := range fk.V {
				if v >= 10 && v < 20 {
					fk.V[i] = 0
				}
			}
			for r := 10; r < 20; r++ {
				if err := part.Delete(r); err != nil {
					t.Fatal(err)
				}
			}
			if consolidate {
				if _, err := storage.Consolidate(testutil.Catalog(fact), part); err != nil {
					t.Fatal(err)
				}
				if part.NumRows() != 30 {
					t.Fatalf("part rows after consolidation = %d, want 30", part.NumRows())
				}
			}
			return fact
		}
	}
	q := query.New("q").
		Where(expr.IntLe("p_size", 12)).
		GroupByCols("p_brand").
		Agg(expr.CountStar("n"), expr.SumOf(expr.C("f_revenue"), "rev")).
		OrderAsc("p_brand")
	testutil.Matrix{
		Queries:  []*query.Query{q},
		Fixtures: []testutil.Fixture{testutil.Sealed("deleted", 0, build(false)), testutil.Sealed("consolidated", 0, build(true))},
		Targets:  []testutil.Target{engineTarget("", Options{}, nil)},
		Render:   sql.Render,
		Tol:      1e-9,
	}.Run(t)
}
