package agg

import (
	"fmt"

	"astore/internal/expr"
)

// Partial is an immutable snapshot of one aggregation state, captured per
// sealed segment so repeated executions of the same plan can merge the
// stored state instead of re-scanning the segment. Accumulators are stored
// raw — Avg cells keep the running sum next to the row count and are only
// finalized at extraction — so partials compose under merge exactly like
// live worker states: merge(capture(A), capture(B)) == capture(A ∪ B).
//
// A Partial is never mutated after capture; concurrent executions may merge
// the same snapshot into their private states without synchronization.
type Partial struct {
	acc cells

	// Array form: the flat cell index of each cell. Hash form: its group
	// key. Exactly one of the two is non-nil for non-empty snapshots; both
	// may be empty when no row of the segment qualified.
	flats []int32
	keys  []string
}

// Capture snapshots the array state into an immutable Partial. Only touched
// cells are copied, so the cost is O(groups), not O(cells).
func (a *ArrayAgg) Capture() *Partial {
	p := &Partial{acc: newCells(a.kinds, len(a.touched)), flats: append([]int32(nil), a.touched...)}
	for i, f := range a.touched {
		p.acc.merge(int32(i), &a.cells, f)
	}
	return p
}

// Capture snapshots the hash state into an immutable Partial, preserving
// raw accumulators.
func (h *HashAgg) Capture() *Partial {
	p := &Partial{acc: newCells(h.kinds, len(h.keys)), keys: make([]string, len(h.keys))}
	copy(p.keys, h.keys)
	for s := range h.keys {
		p.acc.merge(int32(s), &h.cells, int32(s))
	}
	return p
}

// Cells returns the number of non-empty group cells in the snapshot.
func (p *Partial) Cells() int { return len(p.acc.counts) }

// Rows returns the total number of qualifying rows the snapshot represents.
func (p *Partial) Rows() int64 {
	var n int64
	for _, c := range p.acc.counts {
		n += c
	}
	return n
}

// Bytes estimates the snapshot's memory footprint for cache accounting.
func (p *Partial) Bytes() int64 {
	b := int64(96) // struct + slice headers
	b += int64(len(p.flats)) * 4
	b += int64(len(p.acc.counts)) * 8
	b += int64(len(p.acc.counts)*len(p.acc.kinds)) * 8
	for _, k := range p.keys {
		b += int64(len(k)) + 24 // string payload + header + map share
	}
	return b
}

// kindsMatch verifies a snapshot's aggregate list against the receiving
// state's, per position: merging Sum cells into a Min column would silently
// produce wrong extrema, so shape equality is not enough. This matters most
// for snapshots that crossed a process boundary (see wire.go).
func kindsMatch(got, want []expr.AggKind) error {
	if len(got) != len(want) {
		return fmt.Errorf("agg: partial merge of mismatched aggregate kinds")
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("agg: partial merge of mismatched aggregate kinds (%v vs %v at position %d)",
				got[i], want[i], i)
		}
	}
	return nil
}

// MergeIntoArray folds an array-form snapshot into a live aggregation array
// with per-kind semantics: Sum/Avg accumulators add, Min/Max take the
// extremum, counts add (which finalizes Count and Avg correctly later).
func (p *Partial) MergeIntoArray(a *ArrayAgg) error {
	if p.keys != nil {
		return fmt.Errorf("agg: hash-form partial merged into an aggregation array")
	}
	if err := kindsMatch(p.acc.kinds, a.kinds); err != nil {
		return err
	}
	for i, f := range p.flats {
		if int(f) < 0 || int(f) >= len(a.counts) {
			return fmt.Errorf("agg: partial cell %d outside aggregation array of %d cells", f, len(a.counts))
		}
		if a.counts[f] == 0 {
			a.touched = append(a.touched, f)
		}
		a.merge(f, &p.acc, int32(i))
	}
	return nil
}

// MergeIntoHash folds a hash-form snapshot into a live hash aggregation.
func (p *Partial) MergeIntoHash(h *HashAgg) error {
	if p.flats != nil {
		return fmt.Errorf("agg: array-form partial merged into a hash aggregation")
	}
	if err := kindsMatch(p.acc.kinds, h.kinds); err != nil {
		return err
	}
	for i, key := range p.keys {
		h.merge(h.slotOf(key), &p.acc, int32(i))
	}
	return nil
}

// CheckGroups refuses a hash-form snapshot whose group keys do not hold
// one id per grouping column, each below that column's cardinality dims[k]:
// a snapshot from another process is merged and then finalized through
// per-column decode tables. An array-form snapshot's cells are checked by
// MergeIntoArray.
func (p *Partial) CheckGroups(dims []int) error {
	var ids []int32
	for _, key := range p.keys {
		if len(key) != 4*len(dims) {
			return fmt.Errorf("agg: partial group key of %d bytes for %d grouping columns", len(key), len(dims))
		}
		ids = keyIDs(ids, key)
		for k, id := range ids {
			if id < 0 || int(id) >= dims[k] {
				return fmt.Errorf("agg: partial group id %d outside grouping column %d of %d groups", id, k, dims[k])
			}
		}
	}
	return nil
}
