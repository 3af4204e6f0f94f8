package storage

import (
	"fmt"
	"sort"
)

// Consolidate compacts table t by physically removing tuples marked in the
// deletion vector, preserving the order of surviving tuples, and rewrites
// every foreign-key column in the database that references t so the AIR
// invariant keeps holding. It returns the old-index-to-new-index map
// (-1 for removed rows).
//
// Consolidation is the expensive maintenance operation of §4.4: because the
// primary key is the array index, compaction renumbers keys and therefore
// must update all references. The paper recommends running it only when the
// system is idle; here it additionally refuses to run while snapshots pin
// the table or its referrers. Consolidation rebuilds the segment list —
// surviving rows re-chunk into freshly sealed segments plus a tail — which
// is the only way deleted slots are reclaimed on a table that seals
// segments (its inserts never reuse slots in place).
func Consolidate(db *Database, t *Table) ([]int32, error) {
	refs := db.Referrers(t)

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pins > 0 {
		return nil, fmt.Errorf("storage: consolidate %s: table pinned by %d snapshot(s)", t.Name, t.pins)
	}
	for _, r := range refs {
		if r.From == t {
			continue
		}
		// pins is guarded by the referrer's own mutex (Snapshot and
		// Release write it under r.From.mu, not t.mu). One referrer mutex
		// at a time while holding t.mu — same ordering as the rewrite
		// loop below, so this cannot deadlock against single-table
		// writers.
		r.From.mu.Lock()
		pinned := r.From.pins
		r.From.mu.Unlock()
		if pinned > 0 {
			return nil, fmt.Errorf("storage: consolidate %s: referrer %s pinned by snapshot", t.Name, r.From.Name)
		}
	}
	if t.NumLive() == t.nrows && len(t.sortKeys) == 0 {
		// Nothing to compact; identity map.
		remap := make([]int32, t.nrows)
		for i := range remap {
			remap[i] = int32(i)
		}
		t.free = t.free[:0]
		return remap, nil
	}

	// No live reference may point at a deleted row; check before mutating.
	// Each referrer's FK column is read under its own mutex so a concurrent
	// writer cannot append to (and possibly reallocate) it mid-scan.
	for _, r := range refs {
		from := r.From
		if from != t {
			from.mu.Lock()
		}
		err := from.forEachInt32(r.Col, func(chunk []int32, base int, del *Bitmap) error {
			for i, v := range chunk {
				if del != nil && del.Get(i) {
					continue
				}
				if t.IsDeleted(int(v)) {
					return fmt.Errorf("storage: consolidate %s: live row %s[%d] references deleted row %d",
						t.Name, from.Name, base+i, v)
				}
			}
			return nil
		})
		if from != t {
			from.mu.Unlock()
		}
		if err != nil {
			return nil, err
		}
	}

	remap := t.compactLocked()
	t.version++

	// Rewrite all references (the extra cost of consolidation under AIR).
	// Each referrer is rewritten under its own mutex so a concurrent
	// writer cannot append to (and possibly reallocate) the FK column
	// mid-rewrite; one referrer mutex is held at a time, so this cannot
	// deadlock against single-table writers.
	for _, r := range refs {
		if r.From != t {
			r.From.mu.Lock()
		}
		r.From.remapFKLocked(r.Col, remap)
		if r.From != t {
			r.From.version++
			r.From.mu.Unlock()
		}
	}
	return remap, nil
}

// compactLocked rebuilds the segment list without the deleted rows:
// surviving rows move down over the holes of the flattened columns, which
// are then re-chunked into sealed segments at the current target plus a
// tail. With sealed segments the flattened columns are fresh copies and the
// old segments are discarded whole, so any stale reader keeps a coherent
// (if outdated) view; a table that is all tail is compacted in place.
// When sort keys are configured, surviving rows are additionally
// stable-sorted by the key columns before re-sealing (attribute-value
// reordering): zone maps tighten and equal key values form the runs RLE
// encoding exploits. The returned remap composes compaction and
// reordering, so referrer FKs are rewritten once.
func (t *Table) compactLocked() []int32 {
	flat, del := t.flattenLocked()
	remap := make([]int32, t.nrows)
	next := 0
	for i := 0; i < t.nrows; i++ {
		if del != nil && del.Get(i) {
			remap[i] = -1
			continue
		}
		if next != i {
			for _, name := range t.names {
				flat[name].Move(next, i)
			}
		}
		remap[i] = int32(next)
		next++
	}
	for _, name := range t.names {
		flat[name].Truncate(next)
	}
	if len(t.sortKeys) > 0 && next > 1 {
		t.reorderFlatLocked(flat, remap, next)
	}
	t.nrows = next
	t.free = t.free[:0]
	t.rebuildSegmentsLocked(flat, nil)
	return remap
}

// reorderFlatLocked stable-sorts the compacted flat columns by the table's
// sort keys and composes the permutation into remap (which currently maps
// old indexes to compacted indexes).
func (t *Table) reorderFlatLocked(flat map[string]Column, remap []int32, n int) {
	keys := make([]Column, 0, len(t.sortKeys))
	for _, name := range t.sortKeys {
		keys = append(keys, flat[name])
	}
	// perm[newPos] = compacted index that lands at newPos.
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		for _, kc := range keys {
			va, _ := Int64At(kc, int(perm[a]))
			vb, _ := Int64At(kc, int(perm[b]))
			if va != vb {
				return va < vb
			}
		}
		return false
	})
	for name, c := range flat {
		flat[name] = gatherColumn(c, perm)
	}
	// inv[compacted] = final position after the sort.
	inv := make([]int32, n)
	for newPos, mid := range perm {
		inv[mid] = int32(newPos)
	}
	for i, m := range remap {
		if m >= 0 {
			remap[i] = inv[m]
		}
	}
}

// gatherColumn builds a fresh plain column with out[i] = c[perm[i]].
func gatherColumn(c Column, perm []int32) Column {
	switch c := c.(type) {
	case *Int32Col:
		out := make([]int32, len(perm))
		for i, p := range perm {
			out[i] = c.V[p]
		}
		return &Int32Col{V: out}
	case *Int64Col:
		out := make([]int64, len(perm))
		for i, p := range perm {
			out[i] = c.V[p]
		}
		return &Int64Col{V: out}
	case *Float64Col:
		out := make([]float64, len(perm))
		for i, p := range perm {
			out[i] = c.V[p]
		}
		return &Float64Col{V: out}
	case *StrCol:
		out := make([]string, len(perm))
		for i, p := range perm {
			out[i] = c.V[p]
		}
		return &StrCol{V: out}
	case *DictCol:
		out := make([]int32, len(perm))
		for i, p := range perm {
			out[i] = c.Codes[p]
		}
		return &DictCol{Codes: out, Dict: c.Dict}
	default:
		panic("storage: unknown column type in gatherColumn")
	}
}

// remapFKLocked rewrites every value of an int32 FK column through remap.
// Values mapping to -1 belong to rows that are themselves deleted (checked
// by Consolidate) and are parked at 0, a safe in-range index. The column is
// rewritten chunk by chunk, with each segment's epoch bumped (cached plan
// bindings must rebind) and the column's zone recomputed.
func (t *Table) remapFKLocked(col string, remap []int32) {
	for s := range t.segments() {
		c := s.cols[col]
		encoded := ChunkEncoding(c) != EncPlain
		if encoded {
			// Encoded chunks are immutable: rewrite a decoded copy, then
			// re-encode the result (run/width structure may have changed
			// with the new indexes).
			c = cloneChunk(c, s.cap)
		}
		fk := c.(*Int32Col)
		for i := range fk.V[:s.n] {
			if nv := remap[fk.V[i]]; nv >= 0 {
				fk.V[i] = nv
			} else {
				fk.V[i] = 0
			}
		}
		s.cols[col] = c
		if encoded && s.sealed {
			if ec, ok := EncodeChunk(c, s.n); ok {
				s.cols[col] = ec
			}
		}
		if z, ok := zoneOfChunk(s.cols[col], s.zoned); ok {
			s.zones[col] = z
		}
		s.epoch++
	}
}
