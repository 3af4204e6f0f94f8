package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/sql"
	"astore/internal/storage"
	"astore/internal/testutil"
)

// TestVariantsMatchOracleStar is the central differential test: every scan
// variant, serial and parallel, must produce exactly the oracle's result on
// every query of the battery.
func TestVariantsMatchOracleStar(t *testing.T) {
	matrix(testutil.StarQueries(), testutil.Star(42, 5000, 0), variantTargets(1, 4)...).Run(t)
}

// TestVariantsMatchOracleSnowflake exercises multi-hop reference paths and
// predicate-filter chain folding.
func TestVariantsMatchOracleSnowflake(t *testing.T) {
	matrix(testutil.SnowflakeQueries(), testutil.Snowflake(7, 4000, 0), variantTargets(2)...).Run(t)
}

// TestChainFoldingCollapsesToFirstLevel verifies that a predicate on the
// deepest snowflake table is folded into a single predicate vector on the
// first-level dimension when everything fits the budget.
func TestChainFoldingCollapsesToFirstLevel(t *testing.T) {
	fact := testutil.BuildSnowflake(7, 1000)
	eng, err := New(fact, Options{Variant: Auto})
	if err != nil {
		t.Fatal(err)
	}
	q := query.New("deep").
		Where(expr.StrEq("r_name", "ASIA")).
		Agg(expr.CountStar("cnt"))
	var st Stats
	if _, err := eng.RunWithStats(q, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.PrefilterTables) != 1 || st.PrefilterTables[0] != "order" {
		t.Errorf("prefilter tables = %v, want [order]", st.PrefilterTables)
	}
}

// prefilterTarget serves opt and requires every run to build predicate
// vectors for exactly the tables want.
func prefilterTarget(opt Options, want ...string) testutil.Target {
	return engineTarget("", opt, func(_ *Engine, _ testutil.Run, st Stats) error {
		if !slices.Equal(st.PrefilterTables, want) {
			return fmt.Errorf("prefilter tables = %v, want %v", st.PrefilterTables, want)
		}
		return nil
	})
}

// TestBudgetStopsFolding verifies the paper's "probe the big table
// directly" case: when an intermediate table exceeds the cache budget, the
// deeper filter stays separate and the big table is never vectorized.
func TestBudgetStopsFolding(t *testing.T) {
	q := query.New("deep").
		Where(expr.StrEq("r_name", "ASIA"), expr.IntGe("o_price", 500)).
		Agg(expr.CountStar("cnt"))
	// Budget below the order table's 200 rows but above customer's 60: the
	// region filter folds down to customer but cannot enter order, and
	// o_price is probed directly.
	matrix([]*query.Query{q}, testutil.Snowflake(7, 1000, 0), prefilterTarget(Options{Variant: Auto, PrefilterMaxRows: 100}, "customer")).Run(t)
}

// TestHashFallbackWhenArrayTooSparse verifies the §4.3 optimizer: a tiny
// MaxArrayGroups forces hash aggregation, with the oracle's results.
func TestHashFallbackWhenArrayTooSparse(t *testing.T) {
	q := query.New("wide-group").
		GroupByCols("c_nation", "p_brand", "d_year").
		Agg(expr.SumOf(expr.C("f_revenue"), "rev"))
	backend := func(name string, maxGroups int, array bool) testutil.Target {
		return engineTarget(name, Options{Variant: Auto, MaxArrayGroups: maxGroups}, func(_ *Engine, _ testutil.Run, st Stats) error {
			if st.UsedArrayAgg != array {
				return fmt.Errorf("UsedArrayAgg = %v, want %v", st.UsedArrayAgg, array)
			}
			return nil
		})
	}
	matrix([]*query.Query{q}, testutil.Star(9, 2000, 0), backend("array", 0, true), backend("hash", 2, false)).Run(t)
}

// TestPrefilterBudgetDisablesVectors: with a zero-ish budget, Auto must
// probe all dimensions directly and still match.
func TestPrefilterBudgetDisablesVectors(t *testing.T) {
	q := query.New("q").
		Where(expr.StrEq("c_region", "EUROPE"), expr.IntEq("d_year", 1995)).
		GroupByCols("c_nation").
		Agg(expr.CountStar("cnt"))
	matrix([]*query.Query{q}, testutil.Star(11, 1500, 0), prefilterTarget(Options{Variant: Auto, PrefilterMaxRows: 1})).Run(t)
}

func TestDeletedRowsExcluded(t *testing.T) {
	// Retarget fact rows referencing date row 3, which the write deletes;
	// it also deletes some fact rows directly.
	build := func() *storage.Table {
		fact := testutil.BuildStar(13, 800)
		fk := fact.Column("f_dk").(*storage.Int32Col)
		for i, v := range fk.V {
			if v == 3 {
				fk.V[i] = 4
			}
		}
		return fact
	}
	del := func(fact *storage.Table) error {
		if err := fact.FK("f_dk").Delete(3); err != nil {
			return err
		}
		for _, r := range []int{10, 20, 30, 700} {
			if err := fact.Delete(r); err != nil {
				return err
			}
		}
		return nil
	}
	q := query.New("q").
		Where(expr.IntBetween("d_year", 1992, 1998)).
		GroupByCols("d_year").
		Agg(expr.CountStar("cnt"), expr.SumOf(expr.C("f_revenue"), "rev")).
		OrderAsc("d_year")
	fact := build()
	if err := del(fact); err != nil {
		t.Fatal(err)
	}
	want, err := testutil.NaiveRun(fact, q)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, row := range want.Rows {
		total += row.Aggs[0]
	}
	if total != float64(800-4) {
		t.Fatalf("oracle counted %v rows, want 796", total)
	}
	testutil.Matrix{
		Queries:  []*query.Query{q},
		Fixtures: []testutil.Fixture{testutil.Sealed("", 0, build)},
		Targets:  variantTargets(0),
		Writes:   []testutil.Write{{Name: "delete", Apply: del}},
		Render:   sql.Render,
		Tol:      1e-9,
	}.Run(t)
}

func TestRunErrors(t *testing.T) {
	fact := testutil.BuildStar(1, 100)
	eng, err := New(fact, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []*query.Query{
		query.New("bad-pred").Where(expr.IntEq("nope", 1)).Agg(expr.CountStar("c")),
		query.New("bad-group").GroupByCols("nope").Agg(expr.CountStar("c")),
		query.New("bad-agg").Agg(expr.SumOf(expr.C("nope"), "s")),
		query.New("no-aggs"),
		query.New("type-clash").Where(expr.IntEq("c_region", 1)).Agg(expr.CountStar("c")),
		query.New("str-measure").Agg(expr.SumOf(expr.C("c_region"), "s")),
		query.New("float-group").GroupByCols("f_frac").Agg(expr.CountStar("c")),
	}
	for _, q := range cases {
		if _, err := eng.Run(q); err == nil {
			t.Errorf("%s: no error", q.Name)
		}
	}
}

func TestNewRejectsNonTree(t *testing.T) {
	dim := storage.NewTable("d")
	dim.MustAddColumn("x", storage.NewInt64Col([]int64{1}))
	fact := storage.NewTable("f")
	fact.MustAddColumn("a", storage.NewInt32Col([]int32{0}))
	fact.MustAddColumn("b", storage.NewInt32Col([]int32{0}))
	fact.MustAddFK("a", dim)
	fact.MustAddFK("b", dim)
	if _, err := New(fact, Options{}); err == nil {
		t.Fatal("non-tree schema accepted")
	}
}

func TestStatsSanity(t *testing.T) {
	fact := testutil.BuildStar(5, 3000)
	eng, _ := New(fact, Options{Variant: Auto})
	q := query.New("q").
		Where(expr.StrEq("c_region", "ASIA")).
		GroupByCols("c_nation").
		Agg(expr.CountStar("cnt"))
	var st Stats
	res, err := eng.RunWithStats(q, &st)
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsScanned != 3000 {
		t.Errorf("RowsScanned = %d", st.RowsScanned)
	}
	if st.RowsSelected <= 0 || st.RowsSelected > st.RowsScanned {
		t.Errorf("RowsSelected = %d", st.RowsSelected)
	}
	if st.Groups != len(res.Rows) {
		t.Errorf("Groups = %d, rows = %d", st.Groups, len(res.Rows))
	}
	if st.LeafNS < 0 || st.ScanNS < 0 || st.AggNS < 0 {
		t.Error("negative phase time")
	}
	if !st.UsedArrayAgg {
		t.Error("Auto should use array aggregation here")
	}
	if len(st.PrefilterTables) != 1 || st.PrefilterTables[0] != "customer" {
		t.Errorf("PrefilterTables = %v", st.PrefilterTables)
	}
}

func TestVariantString(t *testing.T) {
	want := map[Variant]string{
		Auto: "A-Store", RowWise: "AIRScan_R", RowWisePF: "AIRScan_R_P",
		ColWise: "AIRScan_C", ColWisePF: "AIRScan_C_P", ColWisePFG: "AIRScan_C_P_G",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), s)
		}
	}
	if !strings.Contains(Variant(99).String(), "99") {
		t.Error("unknown variant String")
	}
}

// randomQuerySeeds is the fixed seed corpus of TestRandomQueriesQuick. Each
// seed draws the fixture size, the query and the worker counts, so a fixed
// corpus keeps every subtest name, and any failure, the same from run to run.
var randomQuerySeeds = []int64{
	-1998415166030463149, -2071797479309650266, -3148206171242133863, -3961095885193918327,
	-5684599528306067570, -6230100166399805996, -6513798106024989530, -6591377241571987810,
	-7836772573385229322, -8449486026991874837, -8784848634262735225, 1983761610793125607,
	286102425071498300, 3891810446147824662, 419107948600921584, 5447853045226353982,
	5492752723090031442, 61198464446027797, 6331434868611295400, 6376256759527081243,
	6439498864177145174, 6657681130622898352, 7629450563294975746, 7877929647650150745,
	8029006816208837216,
}

// Property: random queries over random star schemas agree across all
// variants and the oracle.
func TestRandomQueriesQuick(t *testing.T) {
	groupCols := []string{"d_year", "d_month", "c_region", "c_nation", "p_brand", "f_discount", "f_tag"}
	for _, seed := range randomQuerySeeds {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000) + 100

		q := query.New("rand")
		if rng.Intn(2) == 0 {
			q.Where(expr.IntBetween("f_discount", int64(rng.Intn(5)), int64(5+rng.Intn(6))))
		}
		if rng.Intn(2) == 0 {
			q.Where(expr.StrIn("c_region", "ASIA", "EUROPE"))
		}
		if rng.Intn(2) == 0 {
			q.Where(expr.IntEq("d_year", int64(1992+rng.Intn(7))))
		}
		if rng.Intn(2) == 0 {
			q.Where(expr.IntLt("p_size", int64(rng.Intn(20))))
		}
		ng := rng.Intn(3)
		perm := rng.Perm(len(groupCols))
		for i := 0; i < ng; i++ {
			q.GroupByCols(groupCols[perm[i]])
		}
		q.Agg(expr.CountStar("cnt"))
		switch rng.Intn(3) {
		case 0:
			q.Agg(expr.SumOf(expr.C("f_revenue"), "rev"))
		case 1:
			q.Agg(expr.SumOf(expr.Mul(expr.C("f_extprice"), expr.C("f_discount")), "rev"))
		case 2:
			q.Agg(expr.MinOf(expr.C("f_revenue"), "lo"), expr.MaxOf(expr.C("f_revenue"), "hi"))
		}

		var targets []testutil.Target
		for _, v := range allVariants() {
			workers := 1 + rng.Intn(3)
			targets = append(targets, engineTarget(fmt.Sprintf("%s/w%d", v, workers), Options{Variant: v, Workers: workers}, nil))
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			matrix([]*query.Query{q}, testutil.Star(seed, n, 0), targets...).Run(t)
		})
	}
}
