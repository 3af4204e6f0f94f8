package agg

import (
	"math"
	"testing"

	"astore/internal/expr"
)

func TestArrayAggReset(t *testing.T) {
	kinds := []expr.AggKind{expr.Sum, expr.Min, expr.Max}
	a, err := NewArrayAgg([]int{100}, kinds)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []int32{3, 50, 99, 3} {
		a.AddRow(f)
		for k := range kinds {
			a.Update(f, k, float64(f))
		}
	}
	if got := len(a.Extract()); got != 3 {
		t.Fatalf("groups before reset = %d", got)
	}

	a.Reset()
	if got := len(a.Extract()); got != 0 {
		t.Fatalf("groups after reset = %d", got)
	}
	// Min/Max sentinels restored, sums zeroed, counts zeroed.
	for _, f := range []int32{3, 50, 99} {
		if a.counts[f] != 0 {
			t.Fatalf("count[%d] = %d after reset", f, a.counts[f])
		}
		if a.Vals(0)[f] != 0 {
			t.Fatalf("sum[%d] = %g after reset", f, a.Vals(0)[f])
		}
		if !math.IsInf(a.Vals(1)[f], 1) || !math.IsInf(a.Vals(2)[f], -1) {
			t.Fatalf("min/max sentinels not restored at %d", f)
		}
	}

	// The array is fully reusable: accumulate again and extract.
	a.AddRow(7)
	a.Update(7, 0, 5)
	a.Update(7, 1, 5)
	a.Update(7, 2, 5)
	gs := a.Extract()
	if len(gs) != 1 || gs[0].Ids[0] != 7 || gs[0].Vals[0] != 5 {
		t.Fatalf("reuse after reset broken: %+v", gs)
	}
}

func TestArrayAggKinds(t *testing.T) {
	a, _ := NewArrayAgg([]int{2}, []expr.AggKind{expr.Sum, expr.Count})
	k := a.Kinds()
	if len(k) != 2 || k[0] != expr.Sum || k[1] != expr.Count {
		t.Fatalf("Kinds = %v", k)
	}
}

func TestArrayAggTouchedMergeSparse(t *testing.T) {
	kinds := []expr.AggKind{expr.Sum}
	a, _ := NewArrayAgg([]int{1 << 20}, kinds) // 1M cells, 2 groups
	b, _ := NewArrayAgg([]int{1 << 20}, kinds)
	a.AddRow(5)
	a.Update(5, 0, 1)
	b.AddRow(5)
	b.Update(5, 0, 2)
	b.AddRow(999_999)
	b.Update(999_999, 0, 7)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	gs := a.Extract()
	if len(gs) != 2 {
		t.Fatalf("groups = %d", len(gs))
	}
	if gs[0].Ids[0] != 5 || gs[0].Vals[0] != 3 || gs[0].Count != 2 {
		t.Fatalf("group 5 = %+v", gs[0])
	}
	if gs[1].Ids[0] != 999_999 || gs[1].Vals[0] != 7 {
		t.Fatalf("group 999999 = %+v", gs[1])
	}
}
