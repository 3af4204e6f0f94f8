package agg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"astore/internal/expr"
)

func TestArrayAggFlatIndexRoundtrip(t *testing.T) {
	a, err := NewArrayAgg([]int{3, 4, 5}, []expr.AggKind{expr.Sum})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.counts) != 60 {
		t.Fatalf("cells = %d, want 60", len(a.counts))
	}
	seen := make(map[int32]bool)
	for x := int32(0); x < 3; x++ {
		for y := int32(0); y < 4; y++ {
			for z := int32(0); z < 5; z++ {
				f := a.FlatIndex([]int32{x, y, z})
				if f < 0 || int(f) >= 60 || seen[f] {
					t.Fatalf("flat index %d invalid or duplicated", f)
				}
				seen[f] = true
				ids := a.Unflatten(f)
				if ids[0] != x || ids[1] != y || ids[2] != z {
					t.Fatalf("Unflatten(%d) = %v, want [%d %d %d]", f, ids, x, y, z)
				}
			}
		}
	}
}

func TestArrayAggErrors(t *testing.T) {
	if _, err := NewArrayAgg([]int{0}, nil); err == nil {
		t.Fatal("zero-cardinality dimension accepted")
	}
	if _, err := NewArrayAgg([]int{1 << 14, 1 << 14}, nil); err == nil {
		t.Fatal("oversized array accepted")
	}
	a, _ := NewArrayAgg([]int{2}, []expr.AggKind{expr.Sum})
	b, _ := NewArrayAgg([]int{3}, []expr.AggKind{expr.Sum})
	if err := a.Merge(b); err == nil {
		t.Fatal("merge of mismatched arrays accepted")
	}
}

func TestArrayAggAllKinds(t *testing.T) {
	kinds := []expr.AggKind{expr.Sum, expr.Count, expr.Min, expr.Max, expr.Avg}
	a, err := NewArrayAgg([]int{2}, kinds)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{3, 7, 2} { // group 0
		a.AddRow(0)
		for k := range kinds {
			a.Update(0, k, v)
		}
	}
	a.AddRow(1) // group 1 with one row
	for k := range kinds {
		a.Update(1, k, 10)
	}

	gs := a.Extract()
	if len(gs) != 2 {
		t.Fatalf("groups = %d, want 2", len(gs))
	}
	g0 := gs[0]
	if g0.Count != 3 {
		t.Fatalf("count = %d", g0.Count)
	}
	want := []float64{12, 3, 2, 7, 4}
	for k, w := range want {
		if math.Abs(g0.Vals[k]-w) > 1e-9 {
			t.Errorf("kind %v = %g, want %g", kinds[k], g0.Vals[k], w)
		}
	}
	if gs[1].Ids[0] != 1 || gs[1].Vals[0] != 10 {
		t.Errorf("group 1 = %+v", gs[1])
	}
}

func TestArrayAggMerge(t *testing.T) {
	kinds := []expr.AggKind{expr.Sum, expr.Min, expr.Max}
	a, _ := NewArrayAgg([]int{4}, kinds)
	b, _ := NewArrayAgg([]int{4}, kinds)
	a.AddRow(1)
	a.Update(1, 0, 5)
	a.Update(1, 1, 5)
	a.Update(1, 2, 5)
	b.AddRow(1)
	b.Update(1, 0, 3)
	b.Update(1, 1, 3)
	b.Update(1, 2, 3)
	b.AddRow(2)
	b.Update(2, 0, 9)
	b.Update(2, 1, 9)
	b.Update(2, 2, 9)

	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	gs := a.Extract()
	if len(gs) != 2 {
		t.Fatalf("groups after merge = %d", len(gs))
	}
	if gs[0].Vals[0] != 8 || gs[0].Vals[1] != 3 || gs[0].Vals[2] != 5 || gs[0].Count != 2 {
		t.Errorf("merged group 1 = %+v", gs[0])
	}
	if gs[1].Vals[0] != 9 {
		t.Errorf("merged group 2 = %+v", gs[1])
	}
}

// hashCell returns the row count and finalized values of the group with
// the given ids, and whether the hash aggregation holds it.
func hashCell(h *HashAgg, ids ...int32) (int64, []float64, bool) {
	var key []byte
	for _, id := range ids {
		key = binary.LittleEndian.AppendUint32(key, uint32(id))
	}
	s, ok := h.slots[string(key)]
	if !ok {
		return 0, nil, false
	}
	return h.counts[s], h.final(s), true
}

func TestHashAggBasics(t *testing.T) {
	kinds := []expr.AggKind{expr.Sum, expr.Avg, expr.Count, expr.Min, expr.Max}
	h := NewHashAgg(kinds)
	add := func(id int32, v float64) {
		s := h.Slot([]int32{id, 9})
		h.AddRow(s)
		for k := range kinds {
			h.Update(s, k, v)
		}
	}
	add(4, 4)
	add(4, 6)
	add(1, 1)
	if s := h.Slot([]int32{1, 9}); s != 1 {
		t.Fatalf("second group's slot = %d, want 1", s)
	}
	var got []string
	for ids, vals := range h.State().Groups {
		got = append(got, fmt.Sprint(ids, vals))
	}
	if want := "[[4 9] [10 5 2 4 6] [1 9] [1 1 1 1 1]]"; fmt.Sprint(got) != want {
		t.Fatalf("groups = %v, want %s in first-insertion order", got, want)
	}
	if len(h.Kinds()) != 5 {
		t.Error("Kinds lost")
	}
}

func TestHashAggMerge(t *testing.T) {
	kinds := []expr.AggKind{expr.Sum, expr.Min, expr.Max}
	h1 := NewHashAgg(kinds)
	h2 := NewHashAgg(kinds)
	for i, h := range []*HashAgg{h1, h2} {
		s := h.Slot([]int32{0})
		h.AddRow(s)
		v := float64(i + 1) // 1 then 2
		for k := range kinds {
			h.Update(s, k, v)
		}
	}
	s := h2.Slot([]int32{1})
	h2.AddRow(s)
	h2.Update(s, 0, 7)

	h1.Merge(h2)
	if len(h1.keys) != 2 {
		t.Fatalf("merged groups = %d", len(h1.keys))
	}
	count, x, _ := hashCell(h1, 0)
	if count != 2 || x[0] != 3 || x[1] != 1 || x[2] != 2 {
		t.Errorf("merged x = %+v count=%d", x, count)
	}
}

// Property: ArrayAgg and HashAgg agree for random data, including after a
// random two-way partition and merge (the parallel execution pattern).
func TestArrayVsHashQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{rng.Intn(4) + 1, rng.Intn(5) + 1}
		kinds := []expr.AggKind{expr.Sum, expr.Min, expr.Max, expr.Avg, expr.Count}
		full, _ := NewArrayAgg(dims, kinds)
		pa, _ := NewArrayAgg(dims, kinds)
		pb, _ := NewArrayAgg(dims, kinds)
		ha := NewHashAgg(kinds)

		n := rng.Intn(500)
		for i := 0; i < n; i++ {
			x := int32(rng.Intn(dims[0]))
			y := int32(rng.Intn(dims[1]))
			v := float64(rng.Intn(100))
			flat := full.FlatIndex([]int32{x, y})

			full.AddRow(flat)
			part := pa
			if rng.Intn(2) == 0 {
				part = pb
			}
			part.AddRow(flat)
			s := ha.Slot([]int32{x, y})
			ha.AddRow(s)
			for k := range kinds {
				full.Update(flat, k, v)
				part.Update(flat, k, v)
				ha.Update(s, k, v)
			}
		}
		if err := pa.Merge(pb); err != nil {
			return false
		}

		gFull := full.Extract()
		gPart := pa.Extract()
		if len(gFull) != len(gPart) || len(gFull) != len(ha.keys) {
			return false
		}
		for i := range gFull {
			if gFull[i].Count != gPart[i].Count {
				return false
			}
			for k := range kinds {
				if math.Abs(gFull[i].Vals[k]-gPart[i].Vals[k]) > 1e-9 {
					return false
				}
			}
			// Check against the hash cell with the same ids.
			count, hv, ok := hashCell(ha, gFull[i].Ids...)
			if !ok || count != gFull[i].Count {
				return false
			}
			for k := range kinds {
				if math.Abs(gFull[i].Vals[k]-hv[k]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
