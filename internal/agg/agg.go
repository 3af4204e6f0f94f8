// Package agg implements A-Store's two grouping-and-aggregation backends.
//
// ArrayAgg is the array-based column-wise aggregation of §4.3: a
// multidimensional array pre-constructed from the GROUP BY clause, with one
// dimension per grouping column sized by that column's group dictionary.
// Locating a group is pure index arithmetic — no hashing, no probing — which
// is why it beats hash aggregation by a large factor when the array fits in
// cache.
//
// HashAgg is the conventional hash-table backend. A-Store falls back to it
// when the optimizer estimates the aggregation array would be too sparse or
// too large (many grouping columns with large domains); it is also the
// grouping backend of the baseline engines.
package agg

import (
	"fmt"
	"math"
	"sort"

	"astore/internal/expr"
)

// MaxArrayCells caps the size of an aggregation array; requests beyond it
// must use HashAgg. The default corresponds to a few hundred MB, far beyond
// any cache-resident array, so the optimizer's own threshold binds first.
const MaxArrayCells = 1 << 26

// ArrayAgg is a multidimensional aggregation array. Dimension k has
// cardinality dims[k]; the flat index of group (x0, x1, ..) is
// x0 + dims[0]*(x1 + dims[1]*(x2 + ...)), so FlatIndex is a handful of
// multiply-adds.
type ArrayAgg struct {
	dims   []int
	mult   []int32
	kinds  []expr.AggKind
	vals   [][]float64
	counts []int64
	// touched lists the cells whose count went 0 -> 1, so extraction and
	// merging cost O(groups) instead of O(cells) when the array is sparse
	// (the Group By domain is often much larger than the groups actually
	// present).
	touched []int32
}

// NewArrayAgg returns an aggregation array over the given dimension
// cardinalities maintaining one accumulator per aggregate kind.
func NewArrayAgg(dims []int, kinds []expr.AggKind) (*ArrayAgg, error) {
	cells := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("agg: dimension cardinality %d", d)
		}
		if cells > MaxArrayCells/d {
			return nil, fmt.Errorf("agg: aggregation array of %v cells exceeds cap %d", dims, MaxArrayCells)
		}
		cells *= d
	}
	a := &ArrayAgg{
		dims:   append([]int(nil), dims...),
		mult:   make([]int32, len(dims)),
		kinds:  append([]expr.AggKind(nil), kinds...),
		vals:   make([][]float64, len(kinds)),
		counts: make([]int64, cells),
	}
	m := int32(1)
	for i, d := range dims {
		a.mult[i] = m
		m *= int32(d)
	}
	for k, kind := range kinds {
		v := make([]float64, cells)
		switch kind {
		case expr.Min:
			for i := range v {
				v[i] = math.Inf(1)
			}
		case expr.Max:
			for i := range v {
				v[i] = math.Inf(-1)
			}
		}
		a.vals[k] = v
	}
	return a, nil
}

// Cells returns the total number of array cells.
func (a *ArrayAgg) Cells() int { return len(a.counts) }

// Mult returns the per-dimension index multipliers; the flat index of group
// ids is sum(ids[k] * Mult()[k]).
func (a *ArrayAgg) Mult() []int32 { return a.mult }

// FlatIndex computes the flat cell index of a group id vector.
func (a *ArrayAgg) FlatIndex(ids []int32) int32 {
	var f int32
	for k, id := range ids {
		f += id * a.mult[k]
	}
	return f
}

// Unflatten decodes a flat cell index into per-dimension group ids.
func (a *ArrayAgg) Unflatten(flat int32) []int32 {
	ids := make([]int32, len(a.dims))
	for k, d := range a.dims {
		ids[k] = flat % int32(d)
		flat /= int32(d)
	}
	return ids
}

// Vals exposes the flat accumulator array of aggregate k for direct
// accumulation in scan loops. For Sum/Avg the cell holds the running sum;
// for Min/Max the running extremum.
func (a *ArrayAgg) Vals(k int) []float64 { return a.vals[k] }

// fold merges value v into the raw accumulator *acc of an aggregate of the
// given kind: Sum and Avg accumulators add (Avg is divided by the row count
// only at extraction), Min and Max keep the extremum, and Count has no
// accumulator of its own — it rides on the per-cell row counts. Every
// update and every merge of either backend goes through it.
func fold(kind expr.AggKind, acc *float64, v float64) {
	switch kind {
	case expr.Sum, expr.Avg:
		*acc += v
	case expr.Min:
		if v < *acc {
			*acc = v
		}
	case expr.Max:
		if v > *acc {
			*acc = v
		}
	}
}

// Update folds value v of aggregate k into group cell flat.
func (a *ArrayAgg) Update(flat int32, k int, v float64) {
	fold(a.kinds[k], &a.vals[k][flat], v)
}

// AddRow records one qualifying row in group cell flat.
func (a *ArrayAgg) AddRow(flat int32) {
	if a.counts[flat] == 0 {
		a.touched = append(a.touched, flat)
	}
	a.counts[flat]++
}

// Merge folds another aggregation array (same shape, same kinds) into a.
// Used to combine per-worker partial results after parallel scans. Only the
// other array's touched cells are visited.
func (a *ArrayAgg) Merge(o *ArrayAgg) error {
	if len(o.counts) != len(a.counts) || len(o.kinds) != len(a.kinds) {
		return fmt.Errorf("agg: merge of mismatched aggregation arrays")
	}
	for _, f := range o.touched {
		if a.counts[f] == 0 {
			a.touched = append(a.touched, f)
		}
		a.counts[f] += o.counts[f]
		for k, kind := range a.kinds {
			fold(kind, &a.vals[k][f], o.vals[k][f])
		}
	}
	return nil
}

// Reset clears the array for reuse by zeroing only the touched cells, so a
// large, sparsely used aggregation array can be recycled across queries at
// O(groups) cost instead of O(cells) re-allocation.
func (a *ArrayAgg) Reset() {
	for _, f := range a.touched {
		a.counts[f] = 0
		for k, kind := range a.kinds {
			switch kind {
			case expr.Min:
				a.vals[k][f] = math.Inf(1)
			case expr.Max:
				a.vals[k][f] = math.Inf(-1)
			default:
				a.vals[k][f] = 0
			}
		}
	}
	a.touched = a.touched[:0]
}

// Kinds returns the aggregate kinds of the array.
func (a *ArrayAgg) Kinds() []expr.AggKind { return a.kinds }

// Group is one non-empty group extracted from an aggregation backend.
type Group struct {
	// Ids are the per-dimension group ids (ArrayAgg) or nil (HashAgg
	// callers keep their own key decoding).
	Ids   []int32
	Count int64
	// Vals holds the finalized aggregate values (Avg already divided).
	Vals []float64
}

// Extract returns the non-empty groups of the array in ascending flat-index
// order, finalizing Avg and Count aggregates. Cost is O(groups log groups),
// independent of the array's cell count.
func (a *ArrayAgg) Extract() []Group {
	sort.Slice(a.touched, func(i, j int) bool { return a.touched[i] < a.touched[j] })
	out := make([]Group, 0, len(a.touched))
	for _, flat := range a.touched {
		cnt := a.counts[flat]
		if cnt == 0 {
			continue // defensive; touched cells always have rows
		}
		g := Group{Ids: a.Unflatten(flat), Count: cnt, Vals: make([]float64, len(a.kinds))}
		for k, kind := range a.kinds {
			switch kind {
			case expr.Count:
				g.Vals[k] = float64(cnt)
			case expr.Avg:
				g.Vals[k] = a.vals[k][flat] / float64(cnt)
			default:
				g.Vals[k] = a.vals[k][flat]
			}
		}
		out = append(out, g)
	}
	return out
}
