// Package agg implements A-Store's two grouping-and-aggregation backends
// over one cell layout (cells): a row count per group cell and one column
// of raw accumulators per aggregate. The backends differ only in how a
// group finds its cell.
//
// ArrayAgg is the array-based column-wise aggregation of §4.3: a
// multidimensional array pre-constructed from the GROUP BY clause, with one
// dimension per grouping column sized by that column's group dictionary.
// A group's cell is its flat index — pure index arithmetic, no hashing, no
// probing — which is why it beats hash aggregation by a large factor when
// the array fits in cache.
//
// HashAgg is the conventional hash-table backend. A-Store falls back to it
// when the optimizer estimates the aggregation array would be too sparse or
// too large (many grouping columns with large domains); it is also the
// grouping backend of the baseline engines. A group's cell is the slot it
// was given on first sight, found through a map keyed by the group's packed
// dense ids.
//
// Partial, the immutable snapshot the aggregate cache and the shard wire
// carry, holds the same layout.
package agg

import (
	"fmt"
	"math"
	"slices"

	"astore/internal/expr"
)

// cells is the accumulator layout of every aggregation state and snapshot:
// per-cell row counts, and per aggregate k a column vals[k] indexed by
// cell. Accumulators are raw — Sum and Avg cells hold the running sum (Avg
// is divided by the row count only when finalized), Min and Max the
// running extremum — so cells compose under merge. A Count aggregate's
// column is never folded into: its value is the row count.
type cells struct {
	kinds  []expr.AggKind
	counts []int64
	vals   [][]float64
}

// newCells returns n empty cells over a copy of kinds. Only Min and Max
// columns are written: a zero column is left to the allocator, so the
// untouched pages of a large, sparse array stay unmapped.
func newCells(kinds []expr.AggKind, n int) cells {
	c := cells{
		kinds:  append([]expr.AggKind(nil), kinds...),
		counts: make([]int64, n),
		vals:   make([][]float64, len(kinds)),
	}
	for k, kind := range kinds {
		c.vals[k] = make([]float64, n)
		if e := empty(kind); e != 0 {
			for i := range c.vals[k] {
				c.vals[k][i] = e
			}
		}
	}
	return c
}

// empty is the accumulator of a cell no row has reached.
func empty(kind expr.AggKind) float64 {
	switch kind {
	case expr.Min:
		return math.Inf(1)
	case expr.Max:
		return math.Inf(-1)
	}
	return 0
}

// grow appends one empty cell and returns its index.
func (c *cells) grow() int32 {
	c.counts = append(c.counts, 0)
	for k, kind := range c.kinds {
		c.vals[k] = append(c.vals[k], empty(kind))
	}
	return int32(len(c.counts) - 1)
}

// Kinds returns the aggregate kinds.
func (c *cells) Kinds() []expr.AggKind { return c.kinds }

// Vals exposes the accumulator column of aggregate k, indexed by cell, for
// direct accumulation in scan loops.
func (c *cells) Vals(k int) []float64 { return c.vals[k] }

// Update folds value v of aggregate k into cell i.
func (c *cells) Update(i int32, k int, v float64) {
	fold(c.kinds[k], &c.vals[k][i], v)
}

// merge folds cell s of src, which has the same kinds, into cell d: the
// row counts add and every accumulator folds. Every merge of states and
// snapshots, of either backend, goes through it.
func (c *cells) merge(d int32, src *cells, s int32) {
	c.counts[d] += src.counts[s]
	for k, kind := range c.kinds {
		fold(kind, &c.vals[k][d], src.vals[k][s])
	}
}

// final returns cell i's finalized aggregate values: Avg divided by the
// row count, Count filled in.
func (c *cells) final(i int32) []float64 {
	out := make([]float64, len(c.kinds))
	for k, kind := range c.kinds {
		switch kind {
		case expr.Count:
			out[k] = float64(c.counts[i])
		case expr.Avg:
			out[k] = c.vals[k][i] / float64(c.counts[i])
		default:
			out[k] = c.vals[k][i]
		}
	}
	return out
}

// fold merges value v into the raw accumulator *acc of an aggregate of the
// given kind: Sum and Avg accumulators add, Min and Max keep the extremum,
// and Count has no accumulator of its own.
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

// MaxArrayCells caps the size of an aggregation array; requests beyond it
// must use HashAgg. The default corresponds to a few hundred MB, far beyond
// any cache-resident array, so the optimizer's own threshold binds first.
const MaxArrayCells = 1 << 26

// ArrayAgg is a multidimensional aggregation array. Dimension k has
// cardinality dims[k]; the flat index of group (x0, x1, ..) is
// x0 + dims[0]*(x1 + dims[1]*(x2 + ...)), so FlatIndex is a handful of
// multiply-adds. The cells are indexed by flat index.
type ArrayAgg struct {
	cells
	dims []int
	mult []int32
	// touched lists the cells whose count went 0 -> 1, so extraction and
	// merging cost O(groups) instead of O(cells) when the array is sparse
	// (the Group By domain is often much larger than the groups actually
	// present).
	touched []int32
}

// NewArrayAgg returns an aggregation array over the given dimension
// cardinalities maintaining one accumulator per aggregate kind.
func NewArrayAgg(dims []int, kinds []expr.AggKind) (*ArrayAgg, error) {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("agg: dimension cardinality %d", d)
		}
		if n > MaxArrayCells/d {
			return nil, fmt.Errorf("agg: aggregation array of %v cells exceeds cap %d", dims, MaxArrayCells)
		}
		n *= d
	}
	a := &ArrayAgg{
		cells: newCells(kinds, n),
		dims:  append([]int(nil), dims...),
		mult:  make([]int32, len(dims)),
	}
	m := int32(1)
	for i, d := range dims {
		a.mult[i] = m
		m *= int32(d)
	}
	return a, nil
}

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
		a.merge(f, &o.cells, f)
	}
	return nil
}

// Reset clears the array for reuse by emptying only the touched cells, so a
// large, sparsely used aggregation array can be recycled across queries at
// O(groups) cost instead of O(cells) re-allocation.
func (a *ArrayAgg) Reset() {
	for _, f := range a.touched {
		a.counts[f] = 0
		for k, kind := range a.kinds {
			a.vals[k][f] = empty(kind)
		}
	}
	a.touched = a.touched[:0]
}

// Group is one non-empty group extracted from an aggregation array.
type Group struct {
	Ids   []int32 // per-dimension group ids
	Count int64
	// Vals holds the finalized aggregate values (Avg already divided).
	Vals []float64
}

// Extract returns the non-empty groups of the array in ascending flat-index
// order, finalizing Avg and Count aggregates. Cost is O(groups log groups),
// independent of the array's cell count.
func (a *ArrayAgg) Extract() []Group {
	slices.Sort(a.touched)
	out := make([]Group, len(a.touched))
	for i, flat := range a.touched {
		out[i] = Group{Ids: a.Unflatten(flat), Count: a.counts[flat], Vals: a.final(flat)}
	}
	return out
}
