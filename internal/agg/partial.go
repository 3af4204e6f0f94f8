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
	kinds []expr.AggKind

	// Array form: flat cell indexes of the touched cells. Hash form: the
	// encoded group keys. Exactly one of the two is non-nil for non-empty
	// snapshots; both may be empty when no row of the segment qualified.
	flats []int32
	keys  []string

	counts []int64   // per-cell row counts
	vals   []float64 // row-major raw accumulators: cell*len(kinds) + k
}

// Capture snapshots the array state into an immutable Partial. Only touched
// cells are copied, so the cost is O(groups), not O(cells).
func (a *ArrayAgg) Capture() *Partial {
	nk := len(a.kinds)
	p := &Partial{
		kinds:  append([]expr.AggKind(nil), a.kinds...),
		flats:  append([]int32(nil), a.touched...),
		counts: make([]int64, len(a.touched)),
		vals:   make([]float64, len(a.touched)*nk),
	}
	for i, f := range a.touched {
		p.counts[i] = a.counts[f]
		for k := range a.kinds {
			p.vals[i*nk+k] = a.vals[k][f]
		}
	}
	return p
}

// Capture snapshots the hash state into an immutable Partial, preserving
// raw accumulators (unlike Extract, which finalizes).
func (h *HashAgg) Capture() *Partial {
	nk := len(h.kinds)
	p := &Partial{
		kinds:  append([]expr.AggKind(nil), h.kinds...),
		keys:   make([]string, len(h.order)),
		counts: make([]int64, len(h.order)),
		vals:   make([]float64, len(h.order)*nk),
	}
	for i, c := range h.order {
		p.keys[i] = c.key
		p.counts[i] = c.Count
		copy(p.vals[i*nk:(i+1)*nk], c.Vals)
	}
	return p
}

// Cells returns the number of non-empty group cells in the snapshot.
func (p *Partial) Cells() int { return len(p.counts) }

// Rows returns the total number of qualifying rows the snapshot represents.
func (p *Partial) Rows() int64 {
	var n int64
	for _, c := range p.counts {
		n += c
	}
	return n
}

// Bytes estimates the snapshot's memory footprint for cache accounting.
func (p *Partial) Bytes() int64 {
	b := int64(96) // struct + slice headers
	b += int64(len(p.flats)) * 4
	b += int64(len(p.counts)) * 8
	b += int64(len(p.vals)) * 8
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
	if err := kindsMatch(p.kinds, a.kinds); err != nil {
		return err
	}
	nk := len(p.kinds)
	for i, f := range p.flats {
		if int(f) < 0 || int(f) >= len(a.counts) {
			return fmt.Errorf("agg: partial cell %d outside aggregation array of %d cells", f, len(a.counts))
		}
		if a.counts[f] == 0 {
			a.touched = append(a.touched, f)
		}
		a.counts[f] += p.counts[i]
		for k, kind := range a.kinds {
			fold(kind, &a.vals[k][f], p.vals[i*nk+k])
		}
	}
	return nil
}

// MergeIntoHash folds a hash-form snapshot into a live hash aggregation.
func (p *Partial) MergeIntoHash(h *HashAgg) error {
	if p.flats != nil {
		return fmt.Errorf("agg: array-form partial merged into a hash aggregation")
	}
	if err := kindsMatch(p.kinds, h.kinds); err != nil {
		return err
	}
	nk := len(p.kinds)
	for i, key := range p.keys {
		c := h.Upsert([]byte(key))
		c.Count += p.counts[i]
		for k, kind := range h.kinds {
			fold(kind, &c.Vals[k], p.vals[i*nk+k])
		}
	}
	return nil
}
