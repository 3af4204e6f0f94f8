package query

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Value is one group-key value: either a string or a number. Numeric keys
// order numerically, string keys lexicographically.
type Value struct {
	Str   string
	Num   float64
	IsNum bool
}

// NumValue returns a numeric Value.
func NumValue(v float64) Value { return Value{Num: v, IsNum: true} }

// StrValue returns a string Value.
func StrValue(s string) Value { return Value{Str: s} }

// String renders the value.
func (v Value) String() string {
	if v.IsNum {
		if v.Num == math.Trunc(v.Num) && math.Abs(v.Num) < 1e15 {
			return fmt.Sprintf("%d", int64(v.Num))
		}
		return fmt.Sprintf("%g", v.Num)
	}
	return v.Str
}

// Compare orders two values (-1, 0, +1). Numbers sort before strings if
// kinds ever mix (they should not within one column).
func (v Value) Compare(o Value) int {
	if v.IsNum != o.IsNum {
		if v.IsNum {
			return -1
		}
		return 1
	}
	if v.IsNum {
		switch {
		case v.Num < o.Num:
			return -1
		case v.Num > o.Num:
			return 1
		}
		return 0
	}
	return strings.Compare(v.Str, o.Str)
}

// Row is one result group: its key values and aggregate values.
type Row struct {
	Keys []Value
	Aggs []float64
}

// Result is a finished query result.
type Result struct {
	GroupCols []string
	AggNames  []string
	Rows      []Row
}

// Columns returns the result header: the grouping column names followed by
// the aggregate names, matching the value order of each row (keys, then
// aggregates).
func (r *Result) Columns() []string {
	return append(append(make([]string, 0, len(r.GroupCols)+len(r.AggNames)), r.GroupCols...), r.AggNames...)
}

// colIndex locates an ORDER BY column: group key (kind 0) or aggregate
// (kind 1).
func (r *Result) colIndex(name string) (idx int, isAgg bool, err error) {
	for i, g := range r.GroupCols {
		if g == name {
			return i, false, nil
		}
	}
	for i, a := range r.AggNames {
		if a == name {
			return i, true, nil
		}
	}
	return 0, false, fmt.Errorf("query: unknown ORDER BY column %q", name)
}

// Sort orders the rows by the given keys, breaking remaining ties by the
// full group key so results are deterministic regardless of execution
// order (workers, hash iteration); Sort(nil) orders by the full group key
// alone. Aggregates compare as cmp.Compare does — a NaN before every
// number — so the order is total.
func (r *Result) Sort(order []OrderKey) error {
	type sortKey struct {
		idx   int
		isAgg bool
		desc  bool
	}
	keys := make([]sortKey, 0, len(order))
	for _, o := range order {
		idx, isAgg, err := r.colIndex(o.Col)
		if err != nil {
			return err
		}
		keys = append(keys, sortKey{idx, isAgg, o.Desc})
	}
	slices.SortFunc(r.Rows, func(a, b Row) int {
		for _, k := range keys {
			var c int
			if k.isAgg {
				c = cmp.Compare(a.Aggs[k.idx], b.Aggs[k.idx])
			} else {
				c = a.Keys[k.idx].Compare(b.Keys[k.idx])
			}
			if k.desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		for x := range a.Keys {
			if c := a.Keys[x].Compare(b.Keys[x]); c != 0 {
				return c
			}
		}
		return 0
	})
	return nil
}

// Truncate applies a LIMIT.
func (r *Result) Truncate(limit int) {
	if limit > 0 && len(r.Rows) > limit {
		r.Rows = r.Rows[:limit]
	}
}

// Diff compares two results as ordered sets of groups with a relative
// floating-point tolerance on aggregates, returning a descriptive error on
// the first difference. Both results are sorted by their full group key
// first, so execution order does not matter. It is the backbone of the engine-equivalence test
// suite.
func Diff(a, b *Result, tol float64) error {
	if len(a.GroupCols) != len(b.GroupCols) || len(a.AggNames) != len(b.AggNames) {
		return fmt.Errorf("query: shape mismatch: (%v,%v) vs (%v,%v)",
			a.GroupCols, a.AggNames, b.GroupCols, b.AggNames)
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("query: row count mismatch: %d vs %d", len(a.Rows), len(b.Rows))
	}
	ac, bc := *a, *b
	ac.Rows = append([]Row(nil), a.Rows...)
	bc.Rows = append([]Row(nil), b.Rows...)
	_ = ac.Sort(nil)
	_ = bc.Sort(nil)
	for i := range ac.Rows {
		ra, rb := ac.Rows[i], bc.Rows[i]
		for k := range ra.Keys {
			if ra.Keys[k].Compare(rb.Keys[k]) != 0 {
				return fmt.Errorf("query: row %d key %d: %s vs %s", i, k, ra.Keys[k], rb.Keys[k])
			}
		}
		for k := range ra.Aggs {
			va, vb := ra.Aggs[k], rb.Aggs[k]
			scale := math.Max(math.Abs(va), math.Abs(vb))
			if scale < 1 {
				scale = 1
			}
			if math.Abs(va-vb) > tol*scale {
				return fmt.Errorf("query: row %d agg %d: %g vs %g", i, k, va, vb)
			}
		}
	}
	return nil
}

// Format renders the result as an aligned text table for CLI output.
func (r *Result) Format() string {
	var sb strings.Builder
	headers := append(append([]string(nil), r.GroupCols...), r.AggNames...)
	widths := make([]int, len(headers))
	cells := make([][]string, 0, len(r.Rows)+1)
	cells = append(cells, headers)
	for _, row := range r.Rows {
		line := make([]string, 0, len(headers))
		for _, k := range row.Keys {
			line = append(line, k.String())
		}
		for _, v := range row.Aggs {
			line = append(line, NumValue(v).String())
		}
		cells = append(cells, line)
	}
	for _, line := range cells {
		for i, c := range line {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for li, line := range cells {
		for i, c := range line {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
		if li == 0 {
			for i, w := range widths {
				if i > 0 {
					sb.WriteString("  ")
				}
				sb.WriteString(strings.Repeat("-", w))
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
