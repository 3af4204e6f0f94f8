package agg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"astore/internal/expr"
)

// partialKinds exercises every mergeable aggregate in one state: the raw
// accumulators of Sum and Avg add, Min/Max take extrema, Count rides on the
// per-cell row counts.
var partialKinds = []expr.AggKind{expr.Sum, expr.Count, expr.Min, expr.Max, expr.Avg}

// aggRow is one qualifying input row: a group cell and a measure value.
type aggRow struct {
	flat int32
	val  float64
}

func genRows(rng *rand.Rand, n, cells int) []aggRow {
	rows := make([]aggRow, n)
	for i := range rows {
		rows[i] = aggRow{
			flat: int32(rng.Intn(cells)),
			val:  math.Round(rng.NormFloat64()*1000) / 8, // exact in float64
		}
	}
	return rows
}

func feedArray(t *testing.T, rows []aggRow, cells int) *ArrayAgg {
	t.Helper()
	a, err := NewArrayAgg([]int{cells}, partialKinds)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		a.AddRow(r.flat)
		for k := range partialKinds {
			a.Update(r.flat, k, r.val)
		}
	}
	return a
}

func feedHash(rows []aggRow) *HashAgg {
	h := NewHashAgg(partialKinds)
	for _, r := range rows {
		s := h.Slot([]int32{r.flat})
		h.AddRow(s)
		for k := range partialKinds {
			h.Update(s, k, r.val)
		}
	}
	return h
}

// sameArrayResult compares the finalized extractions of two aggregation
// arrays. Values are exact: the generator produces eighths, which sums,
// extrema and small-count averages represent exactly in float64.
func sameArrayResult(t *testing.T, got, want *ArrayAgg, label string) {
	t.Helper()
	gg, wg := got.Extract(), want.Extract()
	if len(gg) != len(wg) {
		t.Fatalf("%s: %d groups, want %d", label, len(gg), len(wg))
	}
	for i := range gg {
		if fmt.Sprint(gg[i].Ids) != fmt.Sprint(wg[i].Ids) || gg[i].Count != wg[i].Count {
			t.Fatalf("%s: group %d = %v/%d, want %v/%d", label, i, gg[i].Ids, gg[i].Count, wg[i].Ids, wg[i].Count)
		}
		for k := range partialKinds {
			if gg[i].Vals[k] != wg[i].Vals[k] {
				t.Fatalf("%s: group %v agg %v = %v, want %v",
					label, gg[i].Ids, partialKinds[k], gg[i].Vals[k], wg[i].Vals[k])
			}
		}
	}
}

// sameHashResult compares the finalized groups of two hash aggregations,
// whatever their insertion order.
func sameHashResult(t *testing.T, got, want *HashAgg, label string) {
	t.Helper()
	sameGroups(t, groupsOf(got.State()), groupsOf(want.State()), label)
}

// TestPartialMergeEqualsWholeArray is the cache's correctness property on
// the array backend: capturing two segments separately and merging the
// snapshots must equal aggregating the union directly, for every aggregate
// kind. Splits cover empty segments (a fully-deleted or fully-filtered
// segment captures an empty partial), disjoint and overlapping group sets,
// and sparse cells.
func TestPartialMergeEqualsWholeArray(t *testing.T) {
	const cells = 64
	rng := rand.New(rand.NewSource(7))
	splits := []struct {
		name string
		na   int // rows in segment A (segment B gets the rest)
		n    int // total rows
	}{
		{"both empty", 0, 0},
		{"a empty", 0, 40},
		{"b empty", 40, 40},
		{"singleton", 1, 2},
		{"sparse", 3, 6},
		{"dense overlap", 500, 1000},
	}
	for _, sp := range splits {
		t.Run(sp.name, func(t *testing.T) {
			rows := genRows(rng, sp.n, cells)
			a1 := feedArray(t, rows[:sp.na], cells)
			a2 := feedArray(t, rows[sp.na:], cells)
			p1, p2 := a1.Capture(), a2.Capture()

			merged, err := NewArrayAgg([]int{cells}, partialKinds)
			if err != nil {
				t.Fatal(err)
			}
			if err := p1.MergeIntoArray(merged); err != nil {
				t.Fatal(err)
			}
			if err := p2.MergeIntoArray(merged); err != nil {
				t.Fatal(err)
			}
			whole := feedArray(t, rows, cells)
			sameArrayResult(t, merged, whole, sp.name)

			if wantRows := int64(sp.n - sp.na); p2.Rows() != wantRows {
				t.Fatalf("p2.Rows() = %d, want %d", p2.Rows(), wantRows)
			}
			if p1.Bytes() <= 0 {
				t.Fatalf("Bytes() = %d, want > 0", p1.Bytes())
			}
		})
	}
}

// TestPartialMergeEqualsWholeHash is the same property on the hash backend.
func TestPartialMergeEqualsWholeHash(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sp := range []struct {
		name  string
		na, n int
	}{
		{"both empty", 0, 0},
		{"a empty", 0, 30},
		{"b empty", 30, 30},
		{"sparse", 2, 5},
		{"dense overlap", 400, 900},
	} {
		t.Run(sp.name, func(t *testing.T) {
			rows := genRows(rng, sp.n, 48)
			p1 := feedHash(rows[:sp.na]).Capture()
			p2 := feedHash(rows[sp.na:]).Capture()

			merged := NewHashAgg(partialKinds)
			if err := p1.MergeIntoHash(merged); err != nil {
				t.Fatal(err)
			}
			if err := p2.MergeIntoHash(merged); err != nil {
				t.Fatal(err)
			}
			sameHashResult(t, merged, feedHash(rows), sp.name)
		})
	}
}

// TestPartialMergeIsImmutable: merging a snapshot twice into different
// targets must yield identical results — the merge must not mutate the
// snapshot (concurrent executions share cached partials without locks).
func TestPartialMergeIsImmutable(t *testing.T) {
	const cells = 32
	rng := rand.New(rand.NewSource(3))
	rows := genRows(rng, 200, cells)
	p := feedArray(t, rows, cells).Capture()

	for round := 0; round < 3; round++ {
		target, err := NewArrayAgg([]int{cells}, partialKinds)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.MergeIntoArray(target); err != nil {
			t.Fatal(err)
		}
		sameArrayResult(t, target, feedArray(t, rows, cells), fmt.Sprintf("round %d", round))
	}
}

// TestPartialMergeFormAndShapeErrors: a snapshot must refuse to merge into
// the wrong backend form, a mismatched kind vector, or an array too small
// for its cells — corrupted cache entries fail loudly, not silently.
func TestPartialMergeFormAndShapeErrors(t *testing.T) {
	const cells = 16
	rows := genRows(rand.New(rand.NewSource(5)), 50, cells)
	arrayP := feedArray(t, rows, cells).Capture()
	hashP := feedHash(rows).Capture()

	if err := hashP.MergeIntoArray(mustArray(t, cells, partialKinds)); err == nil {
		t.Fatal("hash-form partial merged into array without error")
	}
	if err := arrayP.MergeIntoHash(NewHashAgg(partialKinds)); err == nil {
		t.Fatal("array-form partial merged into hash without error")
	}
	if err := arrayP.MergeIntoArray(mustArray(t, cells, []expr.AggKind{expr.Sum})); err == nil {
		t.Fatal("kind-mismatched array merge did not error")
	}
	if err := hashP.MergeIntoHash(NewHashAgg([]expr.AggKind{expr.Sum})); err == nil {
		t.Fatal("kind-mismatched hash merge did not error")
	}
	if err := arrayP.MergeIntoArray(mustArray(t, 2, partialKinds)); err == nil {
		t.Fatal("out-of-range cell merge did not error")
	}

	// An empty capture carries neither form and merges as a no-op into both.
	empty := feedArray(t, nil, cells).Capture()
	if err := empty.MergeIntoArray(mustArray(t, cells, partialKinds)); err != nil {
		t.Fatalf("empty partial into array: %v", err)
	}
	if err := empty.MergeIntoHash(NewHashAgg(partialKinds)); err != nil {
		t.Fatalf("empty partial into hash: %v", err)
	}
}

func mustArray(t *testing.T, cells int, kinds []expr.AggKind) *ArrayAgg {
	t.Helper()
	a, err := NewArrayAgg([]int{cells}, kinds)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
