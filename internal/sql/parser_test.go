package sql

import (
	"strings"
	"testing"

	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/testutil"
)

// paperQ1 is the exact SQL of the paper's running example (§3, Q1).
const paperQ1 = `
SELECT c_nation, s_nation, d_year, sum(lo_revenue) as revenue
FROM customer, lineorder, supplier, date
WHERE lo_custkey = c_custkey
  AND lo_suppkey = s_suppkey
  AND lo_orderdate = d_datekey
  AND c_region = 'ASIA'
  AND s_region = 'ASIA'
  AND d_year >= 1992
  AND d_year <= 1997
GROUP BY c_nation, s_nation, d_year
ORDER BY d_year asc, revenue desc`

func TestParsePaperQ1(t *testing.T) {
	q, err := Parse(paperQ1)
	if err != nil {
		t.Fatal(err)
	}
	// Join conditions were dropped; four value predicates remain.
	if len(q.Preds) != 4 {
		t.Fatalf("preds = %d, want 4 (joins dropped): %v", len(q.Preds), q.Preds)
	}
	if len(q.GroupBy) != 3 || q.GroupBy[0] != "c_nation" {
		t.Fatalf("GroupBy = %v", q.GroupBy)
	}
	if len(q.Aggs) != 1 || q.Aggs[0].As != "revenue" || q.Aggs[0].Kind != expr.Sum {
		t.Fatalf("Aggs = %+v", q.Aggs)
	}
	if len(q.OrderBy) != 2 || q.OrderBy[0].Desc || !q.OrderBy[1].Desc {
		t.Fatalf("OrderBy = %+v", q.OrderBy)
	}
}

// TestParsedQ1MatchesHandWritten: the parsed paper query must return exactly
// the result of the hand-written ssb.Q3_1 (the same query modulo the
// d_year range form).
func TestParsedQ1MatchesHandWritten(t *testing.T) {
	data := ssb.Generate(ssb.Config{SF: 0.01, Seed: 1})
	eng, err := core.New(data.Lineorder, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(paperQ1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run(parsed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run(ssb.Q3_1())
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Diff(want, got, 1e-9); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestParseFeatures(t *testing.T) {
	cases := []struct {
		name string
		sql  string
		chk  func(t *testing.T, q *query.Query)
	}{
		{"count-star", "SELECT count(*) AS n FROM f", func(t *testing.T, q *query.Query) {
			if q.Aggs[0].Kind != expr.Count || q.Aggs[0].Expr != nil {
				t.Fatalf("aggs = %+v", q.Aggs)
			}
		}},
		{"synth-name", "SELECT sum(x) FROM f", func(t *testing.T, q *query.Query) {
			if q.Aggs[0].As != "sum_x" {
				t.Fatalf("As = %q", q.Aggs[0].As)
			}
		}},
		{"bare-alias", "SELECT sum(x) total FROM f", func(t *testing.T, q *query.Query) {
			if q.Aggs[0].As != "total" {
				t.Fatalf("As = %q", q.Aggs[0].As)
			}
		}},
		{"arith", "SELECT sum(a * (1 - b) + c / 2) AS v FROM f", func(t *testing.T, q *query.Query) {
			if got := expr.ExprString(q.Aggs[0].Expr); got != "((a * (1 - b)) + (c / 2))" {
				t.Fatalf("expr = %s", got)
			}
		}},
		{"between-in", "SELECT count(*) AS n FROM f WHERE a BETWEEN 1 AND 3 AND b IN ('x','y') AND c IN (1, 2)",
			func(t *testing.T, q *query.Query) {
				if len(q.Preds) != 3 {
					t.Fatalf("preds = %v", q.Preds)
				}
				if q.Preds[0].Op != expr.Between || q.Preds[1].Kind != expr.KStr || q.Preds[2].Kind != expr.KInt {
					t.Fatalf("preds = %+v", q.Preds)
				}
			}},
		{"float-lit", "SELECT count(*) AS n FROM f WHERE d < 0.05", func(t *testing.T, q *query.Query) {
			if q.Preds[0].Kind != expr.KFloat || q.Preds[0].FVal != 0.05 {
				t.Fatalf("pred = %+v", q.Preds[0])
			}
		}},
		{"neg-lit", "SELECT count(*) AS n FROM f WHERE d > -3", func(t *testing.T, q *query.Query) {
			if q.Preds[0].IVal != -3 {
				t.Fatalf("pred = %+v", q.Preds[0])
			}
		}},
		{"ne-ops", "SELECT count(*) AS n FROM f WHERE a <> 1 AND b != 2", func(t *testing.T, q *query.Query) {
			if q.Preds[0].Op != expr.Ne || q.Preds[1].Op != expr.Ne {
				t.Fatalf("preds = %+v", q.Preds)
			}
		}},
		{"limit", "SELECT count(*) AS n FROM f LIMIT 7", func(t *testing.T, q *query.Query) {
			if q.Limit != 7 {
				t.Fatalf("limit = %d", q.Limit)
			}
		}},
		{"min-max-avg", "SELECT min(x) AS lo, max(x) AS hi, avg(x) AS m FROM f", func(t *testing.T, q *query.Query) {
			if len(q.Aggs) != 3 || q.Aggs[0].Kind != expr.Min || q.Aggs[2].Kind != expr.Avg {
				t.Fatalf("aggs = %+v", q.Aggs)
			}
		}},
		{"string-escape", "SELECT count(*) AS n FROM f WHERE s = 'it''s'", func(t *testing.T, q *query.Query) {
			if q.Preds[0].SVal != "it's" {
				t.Fatalf("SVal = %q", q.Preds[0].SVal)
			}
		}},
		{"qualified-col", "SELECT count(*) AS n FROM f WHERE customer.c_region = 'ASIA'",
			func(t *testing.T, q *query.Query) {
				if q.Preds[0].Col != "customer.c_region" {
					t.Fatalf("col = %q", q.Preds[0].Col)
				}
			}},
		{"agg-expr-cols", "SELECT sum(lo_extendedprice * lo_discount) AS v FROM f", func(t *testing.T, q *query.Query) {
			if cols := expr.Cols(q.Aggs[0].Expr); len(cols) != 2 || cols[0] != "lo_extendedprice" || cols[1] != "lo_discount" {
				t.Fatalf("Cols = %v", cols)
			}
		}},
		{"agg-expr-precedence", "SELECT sum((a + 2) * b - c / 4.5) AS v FROM f", func(t *testing.T, q *query.Query) {
			if got := expr.ExprString(q.Aggs[0].Expr); got != "(((a + 2) * b) - (c / 4.5))" {
				t.Fatalf("expr = %s", got)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			tc.chk(t, q)
		})
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		sql  string
		want string
	}{
		{"empty", "", "expected SELECT"},
		{"no-from", "SELECT count(*) AS n", "expected FROM"},
		{"ungrouped-col", "SELECT c_nation, count(*) AS n FROM f", "must appear in GROUP BY"},
		{"bad-pred", "SELECT count(*) AS n FROM f WHERE ", "expected predicate column"},
		{"bad-op", "SELECT count(*) AS n FROM f WHERE a ~ 1", "unexpected character"},
		{"nonEqJoin", "SELECT count(*) AS n FROM f WHERE a < b", "only equality joins"},
		{"mixed-in", "SELECT count(*) AS n FROM f WHERE a IN (1, 'x')", "mixed types"},
		{"mixed-between", "SELECT count(*) AS n FROM f WHERE a BETWEEN 1 AND 'x'", "mixed types"},
		{"trailing", "SELECT count(*) AS n FROM f WHERE a = 1 XYZZY q", "trailing"},
		{"unterminated", "SELECT count(*) AS n FROM f WHERE s = 'oops", "unterminated string"},
		{"bad-limit", "SELECT count(*) AS n FROM f LIMIT x", "expected LIMIT count"},
		{"dup-agg", "SELECT sum(x) AS a, sum(y) AS a FROM f", "duplicate aggregate"},
		{"second-statement", "SELECT count(*) AS n FROM f GROUP BY x; DROP TABLE f", `input after statement terminator ';' at "DROP"`},
		{"second-select", "SELECT count(*) AS n FROM f; SELECT count(*) AS n FROM f", "input after statement terminator"},
		{"semicolon-mid-statement", "SELECT count(*) AS n; FROM f", "expected FROM"},
		{"semicolon-in-select-list", "SELECT a; b, count(*) AS n FROM f GROUP BY a", "expected FROM"},
		{"semicolon-in-where", "SELECT count(*) AS n FROM f WHERE a = 1; AND b = 2", "input after statement terminator"},
		{"garbage-after-group", "SELECT count(*) AS n FROM f GROUP BY x y z", "trailing"},
		{"agg-expr-empty", "SELECT sum() AS v FROM f", "expected expression"},
		{"agg-expr-dangling-op", "SELECT sum(a +) AS v FROM f", "expected expression"},
		{"agg-expr-juxtaposed", "SELECT sum(a b) AS v FROM f", `expected ")" at "b"`},
		{"agg-expr-nested-agg", "SELECT sum(sum(a)) AS v FROM f", `expected ")" at "("`},
		{"agg-expr-semicolon", "SELECT sum(a; b) AS v FROM f", `expected ")" at ";"`},
		{"agg-expr-comparison", "SELECT sum(a = 1) AS v FROM f", `expected ")" at "="`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.sql)
			if err == nil {
				t.Fatalf("parsed: %q", tc.sql)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseStatementTerminator: a trailing ';' (possibly repeated, possibly
// followed by whitespace) closes a statement; it is the form interactive
// shells submit.
func TestParseStatementTerminator(t *testing.T) {
	for _, src := range []string{
		"SELECT count(*) AS n FROM f;",
		"SELECT count(*) AS n FROM f ;",
		"SELECT count(*) AS n FROM f;;;",
		"SELECT count(*) AS n FROM f;\n",
		"SELECT count(*) AS n FROM f WHERE a = 1 GROUP BY b ORDER BY b LIMIT 3;",
	} {
		q, err := Parse(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if len(q.Aggs) != 1 || q.Aggs[0].As != "n" {
			t.Errorf("%q: Aggs = %+v", src, q.Aggs)
		}
	}
}

// TestParsedSSBSuite: SQL forms of several SSB queries parse and execute to
// the same results as the hand-built query objects.
func TestParsedSSBSuite(t *testing.T) {
	data := ssb.Generate(ssb.Config{SF: 0.01, Seed: 1})
	eng, err := core.New(data.Lineorder, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sql  string
		want *query.Query
	}{
		{`SELECT sum(lo_extendedprice * lo_discount) AS revenue
		  FROM lineorder, date
		  WHERE lo_orderdate = d_datekey AND d_year = 1993
		    AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25`, ssb.Q1_1()},
		{`SELECT d_year, p_brand1, sum(lo_revenue) AS revenue
		  FROM lineorder, date, part, supplier
		  WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey
		    AND lo_suppkey = s_suppkey
		    AND p_category = 'MFGR#12' AND s_region = 'AMERICA'
		  GROUP BY d_year, p_brand1
		  ORDER BY d_year, p_brand1`, ssb.Q2_1()},
		{`SELECT d_year, c_nation, sum(lo_revenue - lo_supplycost) AS profit
		  FROM date, customer, supplier, part, lineorder
		  WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
		    AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
		    AND c_region = 'AMERICA' AND s_region = 'AMERICA'
		    AND p_mfgr IN ('MFGR#1', 'MFGR#2')
		  GROUP BY d_year, c_nation
		  ORDER BY d_year, c_nation`, ssb.Q4_1()},
	}
	for _, tc := range cases {
		parsed, err := Parse(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.want.Name, err)
		}
		got, err := eng.Run(parsed)
		if err != nil {
			t.Fatalf("%s: %v", tc.want.Name, err)
		}
		want, err := eng.Run(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if err := query.Diff(want, got, 1e-9); err != nil {
			t.Errorf("%s: %v", tc.want.Name, err)
		}
	}
}

// TestParsedQueryOnOracle double-checks a parsed query against the
// brute-force oracle on the generic star fixture.
func TestParsedQueryOnOracle(t *testing.T) {
	fact := testutil.BuildStar(5, 2000)
	q, err := Parse(`SELECT c_region, max(f_revenue) AS hi, count(*) AS n
		FROM fact, customer
		WHERE f_ck = c_custkey AND f_discount BETWEEN 2 AND 8
		GROUP BY c_region ORDER BY hi DESC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := testutil.NaiveRun(fact, q)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(fact, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Diff(want, got, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestParseStatementTables(t *testing.T) {
	st, err := ParseStatement(paperQ1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"customer", "lineorder", "supplier", "date"}
	if len(st.Tables) != len(want) {
		t.Fatalf("Tables = %v", st.Tables)
	}
	for i, w := range want {
		if st.Tables[i] != w {
			t.Errorf("Tables[%d] = %q, want %q", i, st.Tables[i], w)
		}
	}
	if st.Query == nil || len(st.Query.GroupBy) != 3 {
		t.Fatalf("Query = %+v", st.Query)
	}

	// Single-table FROM.
	st, err = ParseStatement("SELECT count(*) AS n FROM wide")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tables) != 1 || st.Tables[0] != "wide" {
		t.Fatalf("Tables = %v", st.Tables)
	}
}
