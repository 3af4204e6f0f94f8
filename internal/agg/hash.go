package agg

import (
	"math"

	"astore/internal/expr"
)

// Cell is one group of a HashAgg: running accumulators plus the row count.
type Cell struct {
	Count int64
	Vals  []float64
	key   string
}

// Key returns the encoded group key the cell was created with.
func (c *Cell) Key() string { return c.key }

// HashAgg is the conventional hash-table grouping backend. Keys are opaque
// byte strings encoded by the caller (packed group ids for A-Store's sparse
// fallback, raw group values for the baseline engines).
type HashAgg struct {
	kinds []expr.AggKind
	cells map[string]*Cell
	order []*Cell
}

// NewHashAgg returns an empty hash aggregation over the given aggregate
// kinds.
func NewHashAgg(kinds []expr.AggKind) *HashAgg {
	return &HashAgg{
		kinds: append([]expr.AggKind(nil), kinds...),
		cells: make(map[string]*Cell),
	}
}

// Upsert returns the cell for key, creating it if needed. The lookup avoids
// allocating for existing groups (map[string] indexing with a []byte
// conversion is allocation-free in Go).
func (h *HashAgg) Upsert(key []byte) *Cell {
	if c, ok := h.cells[string(key)]; ok {
		return c
	}
	c := &Cell{Vals: make([]float64, len(h.kinds)), key: string(key)}
	for k, kind := range h.kinds {
		switch kind {
		case expr.Min:
			c.Vals[k] = math.Inf(1)
		case expr.Max:
			c.Vals[k] = math.Inf(-1)
		}
	}
	h.cells[c.key] = c
	h.order = append(h.order, c)
	return c
}

// Update folds value v of aggregate k into the cell. Counts are maintained
// by the caller bumping Count.
func (c *Cell) Update(kinds []expr.AggKind, k int, v float64) {
	fold(kinds[k], &c.Vals[k], v)
}

// Kinds returns the aggregate kinds of the hash aggregation.
func (h *HashAgg) Kinds() []expr.AggKind { return h.kinds }

// Len returns the number of groups.
func (h *HashAgg) Len() int { return len(h.cells) }

// Merge folds another hash aggregation (same kinds) into h. Used to combine
// per-worker partial results after parallel scans.
func (h *HashAgg) Merge(o *HashAgg) {
	for _, oc := range o.order {
		c := h.Upsert([]byte(oc.key))
		c.Count += oc.Count
		for k, kind := range h.kinds {
			fold(kind, &c.Vals[k], oc.Vals[k])
		}
	}
}

// Extract returns the groups in first-insertion order, finalizing Avg and
// Count aggregates. The cell's Key carries the caller's encoded group key.
func (h *HashAgg) Extract() []*Cell {
	out := make([]*Cell, 0, len(h.order))
	for _, c := range h.order {
		fc := &Cell{Count: c.Count, Vals: append([]float64(nil), c.Vals...), key: c.key}
		for k, kind := range h.kinds {
			switch kind {
			case expr.Count:
				fc.Vals[k] = float64(c.Count)
			case expr.Avg:
				if c.Count > 0 {
					fc.Vals[k] = c.Vals[k] / float64(c.Count)
				}
			}
		}
		out = append(out, fc)
	}
	return out
}
