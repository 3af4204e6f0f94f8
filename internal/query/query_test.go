package query

import (
	"math"
	"strings"
	"testing"

	"astore/internal/expr"
)

func TestBuilderAndValidate(t *testing.T) {
	q := New("q").
		Where(expr.StrEq("c_region", "ASIA"), expr.IntBetween("d_year", 1992, 1997)).
		GroupByCols("c_nation", "d_year").
		Agg(expr.SumOf(expr.C("lo_revenue"), "revenue")).
		OrderAsc("d_year").OrderDesc("revenue").
		WithLimit(10)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 2 || len(q.GroupBy) != 2 || q.Limit != 10 {
		t.Fatalf("builder lost parts: %+v", q)
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[1].Desc {
		t.Fatalf("OrderBy = %+v", q.OrderBy)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []*Query{
		New("no-aggs"),
		New("anon-agg").Agg(expr.Aggregate{Kind: expr.Sum, Expr: expr.C("x")}),
		New("dup-agg").Agg(expr.SumOf(expr.C("x"), "a"), expr.CountStar("a")),
		New("nil-expr").Agg(expr.Aggregate{Kind: expr.Sum, As: "a"}),
		New("group-clash").Agg(expr.CountStar("g")).GroupByCols("g"),
		New("dup-group").Agg(expr.CountStar("c")).GroupByCols("a", "a"),
		New("bad-order").Agg(expr.CountStar("c")).OrderAsc("nope"),
	}
	for _, q := range cases {
		if err := q.Validate(); err == nil {
			t.Errorf("query %s validated", q.Name)
		}
	}
}

func TestValueCompareAndString(t *testing.T) {
	if NumValue(1).Compare(NumValue(2)) != -1 ||
		NumValue(2).Compare(NumValue(1)) != 1 ||
		NumValue(2).Compare(NumValue(2)) != 0 {
		t.Error("numeric compare broken")
	}
	if StrValue("a").Compare(StrValue("b")) != -1 {
		t.Error("string compare broken")
	}
	if NumValue(1).Compare(StrValue("a")) != -1 || StrValue("a").Compare(NumValue(1)) != 1 {
		t.Error("mixed-kind compare broken")
	}
	if NumValue(1997).String() != "1997" {
		t.Errorf("int-ish render = %q", NumValue(1997).String())
	}
	if NumValue(1.5).String() != "1.5" {
		t.Errorf("float render = %q", NumValue(1.5).String())
	}
	if StrValue("x").String() != "x" {
		t.Error("string render broken")
	}
}

func mkResult() *Result {
	return &Result{
		GroupCols: []string{"year", "nation"},
		AggNames:  []string{"revenue"},
		Rows: []Row{
			{Keys: []Value{NumValue(1993), StrValue("CHINA")}, Aggs: []float64{50}},
			{Keys: []Value{NumValue(1992), StrValue("JAPAN")}, Aggs: []float64{70}},
			{Keys: []Value{NumValue(1992), StrValue("CHINA")}, Aggs: []float64{70}},
		},
	}
}

func TestResultSort(t *testing.T) {
	r := mkResult()
	if err := r.Sort([]OrderKey{{Col: "year"}, {Col: "revenue", Desc: true}}); err != nil {
		t.Fatal(err)
	}
	// year asc; within 1992, equal revenue ties broken by full key (CHINA<JAPAN).
	if r.Rows[0].Keys[1].Str != "CHINA" || r.Rows[1].Keys[1].Str != "JAPAN" {
		t.Fatalf("sorted rows = %+v", r.Rows)
	}
	if r.Rows[2].Keys[0].Num != 1993 {
		t.Fatalf("year order broken: %+v", r.Rows[2])
	}
	if err := r.Sort([]OrderKey{{Col: "bogus"}}); err == nil {
		t.Fatal("sort by unknown column accepted")
	}

	// Tied ORDER BY values fall back to the full key ascending, also under
	// DESC; a NaN aggregate sorts before every number, so last under DESC.
	n := &Result{GroupCols: []string{"k"}, AggNames: []string{"v"}, Rows: []Row{
		{Keys: []Value{NumValue(3)}, Aggs: []float64{1}},
		{Keys: []Value{NumValue(1)}, Aggs: []float64{math.NaN()}},
		{Keys: []Value{NumValue(2)}, Aggs: []float64{1}},
		{Keys: []Value{NumValue(0)}, Aggs: []float64{5}},
	}}
	if err := n.Sort([]OrderKey{{Col: "v", Desc: true}}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0, 2, 3, 1} {
		if got := n.Rows[i].Keys[0].Num; got != want {
			t.Fatalf("DESC with ties and NaN: row %d has key %g, want %g (rows %+v)", i, got, want, n.Rows)
		}
	}
}

func TestResultSortByAggAsc(t *testing.T) {
	r := mkResult()
	if err := r.Sort([]OrderKey{{Col: "revenue"}}); err != nil {
		t.Fatal(err)
	}
	if r.Rows[0].Aggs[0] != 50 {
		t.Fatalf("agg asc sort broken: %+v", r.Rows)
	}
}

func TestTruncate(t *testing.T) {
	r := mkResult()
	r.Truncate(0)
	if len(r.Rows) != 3 {
		t.Fatal("limit 0 truncated")
	}
	r.Truncate(2)
	if len(r.Rows) != 2 {
		t.Fatal("limit 2 not applied")
	}
	r.Truncate(10)
	if len(r.Rows) != 2 {
		t.Fatal("limit beyond length changed rows")
	}
}

func TestDiff(t *testing.T) {
	a, b := mkResult(), mkResult()
	// Shuffle b's row order; Diff must not care.
	b.Rows[0], b.Rows[2] = b.Rows[2], b.Rows[0]
	if err := Diff(a, b, 1e-9); err != nil {
		t.Fatalf("equal results differ: %v", err)
	}
	b.Rows[0].Aggs[0] += 0.0001
	if err := Diff(a, b, 1e-9); err == nil {
		t.Fatal("agg difference not detected")
	}
	if err := Diff(a, b, 1e-3); err != nil {
		t.Fatalf("tolerance not honored: %v", err)
	}

	c := mkResult()
	c.Rows = c.Rows[:2]
	if err := Diff(a, c, 1e-9); err == nil {
		t.Fatal("row count difference not detected")
	}
	d := mkResult()
	d.Rows[1].Keys[1] = StrValue("KOREA")
	if err := Diff(a, d, 1e-9); err == nil {
		t.Fatal("key difference not detected")
	}
	e := &Result{GroupCols: []string{"x"}, AggNames: []string{"y"}}
	if err := Diff(a, e, 1e-9); err == nil {
		t.Fatal("shape difference not detected")
	}
}

func TestFormat(t *testing.T) {
	r := mkResult()
	out := r.Format()
	for _, want := range []string{"year", "nation", "revenue", "CHINA", "1993", "50"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + rule + 3 rows
		t.Errorf("Format produced %d lines:\n%s", len(lines), out)
	}
}
