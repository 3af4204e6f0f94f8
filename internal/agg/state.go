package agg

import "fmt"

// State is one live aggregation state of a query execution: an aggregation
// array or a hash table, never both. The backend is chosen once, when the
// plan is compiled; everything downstream of the scan kernels — merging
// worker states, folding in cached or remote partials, capturing a snapshot,
// finalizing groups, recycling a pooled array — goes through State, so the
// choice is made in exactly one place.
type State struct {
	arr     *ArrayAgg
	h       *HashAgg
	release func(*ArrayAgg)
}

// State wraps the array as a live aggregation state. release, when non-nil,
// receives the array back on State.Release (the engine's array pool).
func (a *ArrayAgg) State(release func(*ArrayAgg)) *State {
	return &State{arr: a, release: release}
}

// State wraps the hash table as a live aggregation state.
func (h *HashAgg) State() *State { return &State{h: h} }

// Array returns the aggregation array, or nil for a hash-form state. Scan
// kernels group into the backend directly.
func (s *State) Array() *ArrayAgg { return s.arr }

// Hash returns the hash table, or nil for an array-form state.
func (s *State) Hash() *HashAgg { return s.h }

// Vals exposes the accumulator column of aggregate k, indexed by the flat
// cell of the array form or the slot of the hash form, for direct
// accumulation in scan loops.
func (s *State) Vals(k int) []float64 {
	if s.arr != nil {
		return s.arr.vals[k]
	}
	return s.h.vals[k]
}

// Merge folds another live state of the same form and shape into s, as
// after a parallel scan.
func (s *State) Merge(o *State) error {
	switch {
	case s.arr != nil && o.arr != nil:
		return s.arr.Merge(o.arr)
	case s.h != nil && o.h != nil:
		s.h.Merge(o.h)
		return nil
	}
	return fmt.Errorf("agg: merge of an array-form and a hash-form state")
}

// MergePartial folds an immutable snapshot — a cached per-segment partial
// or a remote shard's — into s. A snapshot of the other form, of other
// aggregate kinds, or addressing cells outside the array is an error.
func (s *State) MergePartial(p *Partial) error {
	if s.arr != nil {
		return p.MergeIntoArray(s.arr)
	}
	return p.MergeIntoHash(s.h)
}

// Capture snapshots the state's raw accumulators into an immutable Partial.
func (s *State) Capture() *Partial {
	if s.arr != nil {
		return s.arr.Capture()
	}
	return s.h.Capture()
}

// Groups iterates the non-empty groups with their per-dimension dense group
// ids and finalized aggregate values (Avg divided, Count filled in):
// ascending flat-index order for the array form, first-insertion order for
// the hash form. ids is only valid until the next iteration; vals may be
// retained.
func (s *State) Groups(yield func(ids []int32, vals []float64) bool) {
	if s.arr != nil {
		for _, g := range s.arr.Extract() {
			if !yield(g.Ids, g.Vals) {
				return
			}
		}
		return
	}
	var ids []int32
	for slot, key := range s.h.keys {
		ids = keyIDs(ids, key)
		if !yield(ids, s.h.final(int32(slot))) {
			return
		}
	}
}

// Release hands a pooled array back through the hook the state was built
// with. It is idempotent, and a no-op for hash-form states; the state must
// not be used afterwards.
func (s *State) Release() {
	if s.arr != nil && s.release != nil {
		s.release(s.arr)
	}
	s.arr, s.release = nil, nil
}
