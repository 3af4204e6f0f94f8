package baseline

import (
	"testing"

	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/sql"
	"astore/internal/storage"
	"astore/internal/testutil"
)

// TestBaselinesRespectDeletionVectors: lazily deleted fact and dimension
// rows must be invisible to both baseline engines (§4.4: the deletion
// vector filters out-of-date tuples).
func TestBaselinesRespectDeletionVectors(t *testing.T) {
	// Retarget the facts referencing part row 7, which the write deletes
	// along with some fact rows.
	build := func() *storage.Table {
		fact := testutil.BuildStar(61, 1200)
		fk := fact.Column("f_pk").(*storage.Int32Col)
		for i, v := range fk.V {
			if v == 7 {
				fk.V[i] = 8
			}
		}
		return fact
	}
	del := func(fact *storage.Table) error {
		if err := fact.FK("f_pk").Delete(7); err != nil {
			return err
		}
		for _, r := range []int{0, 500, 1199} {
			if err := fact.Delete(r); err != nil {
				return err
			}
		}
		return nil
	}
	q := query.New("q").
		Where(expr.IntLe("p_size", 15)).
		GroupByCols("p_brand").
		Agg(expr.CountStar("n"), expr.SumOf(expr.C("f_revenue"), "rev")).
		OrderAsc("p_brand")
	testutil.Matrix{
		Queries:  []*query.Query{q},
		Fixtures: []testutil.Fixture{testutil.Sealed("", 0, build)},
		Targets:  engineTargets(false),
		Writes:   []testutil.Write{{Name: "delete", Apply: del}},
		Render:   sql.Render,
		Tol:      1e-9,
	}.Run(t)
}

// TestBaselineSkipsUnreferencedDimensions: a query touching no dimension
// must not build any dimension hash table (a real engine prunes unused
// joins; prepare's dims list is observable through prep).
func TestBaselineSkipsUnreferencedDimensions(t *testing.T) {
	fact := testutil.BuildStar(62, 300)
	q := query.New("q").
		Where(expr.IntGe("f_quantity", 10)).
		GroupByCols("f_tag").
		Agg(expr.CountStar("n"))
	p, err := prepare(fact, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.dims) != 0 {
		t.Fatalf("prepared %d dimension plans for a fact-only query", len(p.dims))
	}
}
