package core

import (
	"strings"
	"testing"

	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/testutil"
)

func TestExplainStar(t *testing.T) {
	fact := testutil.BuildStar(71, 800)
	eng, err := New(fact, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := query.New("q").
		Where(
			expr.StrEq("c_region", "ASIA").WithSel(0.2),
			expr.IntBetween("f_discount", 1, 3).WithSel(0.27),
		).
		GroupByCols("c_nation", "d_year").
		Agg(expr.SumOf(expr.C("f_revenue"), "rev"), expr.CountStar("n")).
		OrderDesc("rev")
	out, err := explain(eng, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"scan fact: 800 rows",
		"predicate vector", // customer prefilter
		"predicate vectors on: customer",
		"c_nation", "d_year",
		"multidimensional array",
		"dense column scan", // f_revenue fast path
		"count(*)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Filters are ordered most selective first: the customer vector probe
	// (sel ~0.2) before the discount scan (0.27).
	if strings.Index(out, "customer") > strings.Index(out, "f_discount") {
		t.Errorf("filter order not by selectivity:\n%s", out)
	}
}

func TestExplainSnowflakeAndFallbacks(t *testing.T) {
	fact := testutil.BuildSnowflake(72, 500)
	eng, err := New(fact, Options{PrefilterMaxRows: 100, MaxArrayGroups: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := query.New("q").
		Where(expr.StrEq("r_name", "ASIA"), expr.IntGe("o_price", 500)).
		GroupByCols("c_mktsegment", "p_type").
		Agg(expr.SumOf(expr.Mul(expr.C("l_extendedprice"), expr.Subtract(expr.K(1), expr.C("l_discount"))), "rev"))
	out, err := explain(eng, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"probe (direct)", // o_price on the over-budget order table
		"hash table",     // MaxArrayGroups=2 forces the fallback
		"dense a*(1-b) scan",
		"group vector + dictionary",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	if _, err := explain(eng, query.New("bad").Agg(expr.SumOf(expr.C("nope"), "s"))); err == nil {
		t.Fatal("Explain of invalid query succeeded")
	}
}

func TestExplainGlobalAggregate(t *testing.T) {
	fact := testutil.BuildStar(73, 100)
	eng, _ := New(fact, Options{})
	out, err := explain(eng, query.New("q").Agg(expr.CountStar("n")))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "global aggregate") || !strings.Contains(out, "filters: none") {
		t.Errorf("Explain:\n%s", out)
	}
}
