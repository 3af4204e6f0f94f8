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

// TestFirstFilterMatchesOracle runs every kind of selection-vector filter
// as a morsel's first filter, which reads the engine's shared row numbers
// rather than a selection it owns: each query has one filter. Over the
// sorted (RLE date FK), scattered (FoR FKs) and plain layouts of
// encodedStar, the filters are the predicate-vector probe over plain, FoR
// and RLE keys, the direct-match probe (a one-row prefilter budget), and
// the root int32, int64, dictionary, FoR, RLE and matcher filterers; over
// the snowflake fixture, the probes through one and through several hops.
// Sealed segments 3 and 4 carry no deletions, segments 0–2 and the tail do.
// Every batch size and worker count must return the oracle's answer, cold
// and warm, and leave the shared row numbers as 0, 1, 2, …
func TestFirstFilterMatchesOracle(t *testing.T) {
	const n, target = 3000, 512
	intact := func(eng *Engine, _ testutil.Run, _ Stats) error {
		eng.rowsMu.Lock()
		defer eng.rowsMu.Unlock()
		for i, r := range eng.rows {
			if r != int32(i) {
				return fmt.Errorf("shared row number %d holds %d", i, r)
			}
		}
		return nil
	}
	var targets []testutil.Target
	for _, budget := range []int{0, 100, 1} { // default; snowflake vector a hop out; no vector
		for _, batch := range []int{1, 7, 64, 65, 1 << 16} {
			for _, workers := range []int{1, 3} {
				o := Options{Workers: workers, BatchRows: batch, PrefilterMaxRows: budget, AggCacheBytes: -1}
				targets = append(targets, engineTarget(fmt.Sprintf("prefilter=%d/batch=%d/w%d", budget, batch, workers), o, intact))
			}
		}
	}
	plain := testutil.Fixture{Name: "plain", Build: func(t testing.TB, flat bool) *storage.Table {
		fact := encodedStar(t, n, 0, false)
		if !flat {
			if err := fact.SetSegmentTarget(target); err != nil {
				t.Fatal(err)
			}
		}
		return fact
	}}
	one := func(p expr.Pred, group string) *query.Query {
		return query.New(p.String()).Where(p).GroupByCols(group).
			Agg(expr.CountStar("n"), expr.SumOf(expr.C("f_price"), "price")).OrderAsc(group)
	}
	testutil.Matrix{
		Queries: []*query.Query{
			one(expr.IntBetween("d_year", 1993, 1994), "f_tag"),
			one(expr.StrEq("c_region", "ASIA"), "d_year"),
			one(expr.IntLt("f_qty", 25), "c_region"),
			one(expr.IntGe("f_wide", 0), "d_year"),
			one(expr.IntBetween("f_price", 2000, 6000), "f_tag"),
			one(expr.IntLe("f_net", 0), "d_year"),
			one(expr.StrIn("f_tag", "ASIA", "EUROPE"), "c_region"),
			one(expr.IntBetween("f_batch", 10, 30), "d_year"),
			one(expr.IntGt("f_lot", 20000), "c_region"),
			one(expr.IntNe("f_qty", 7), "f_tag"),
			one(expr.FloatBetween("f_frac", 0.25, 0.5), "d_year"),
		},
		Fixtures: []testutil.Fixture{encodedFixture(n, target, true), encodedFixture(n, target, false), plain},
		Targets:  targets,
		Render:   sql.Render,
	}.Run(t)

	hop := func(p expr.Pred) *query.Query {
		return query.New(p.String()).Where(p).GroupByCols("p_type").
			Agg(expr.CountStar("n"), expr.SumOf(expr.C("l_extendedprice"), "price")).OrderAsc("p_type")
	}
	testutil.Matrix{
		Queries: []*query.Query{
			hop(expr.StrEq("r_name", "ASIA")),
			hop(expr.StrIn("c_mktsegment", "BUILDING", "MACHINERY")),
			hop(expr.IntLt("o_price", 700)),
		},
		Fixtures: []testutil.Fixture{testutil.Sealed("snowflake", target, func() *storage.Table {
			fact := testutil.BuildSnowflake(5, n)
			for _, row := range []int{3, 700, 1499, n - 2} {
				if err := fact.Delete(row); err != nil {
					panic(err)
				}
			}
			return fact
		})},
		Targets: targets,
		Render:  sql.Render,
	}.Run(t)
}
