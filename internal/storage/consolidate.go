package storage

import (
	"fmt"
	"slices"
)

// Consolidate compacts table t by physically removing tuples marked in the
// deletion vector, keeping the surviving tuples in their order (or in
// sort-key order, when t has sort keys), and rewrites every foreign-key
// column in the database that references t so the AIR invariant keeps
// holding. It returns the old-index-to-new-index map (-1 for removed rows).
//
// Consolidation is the expensive maintenance operation of §4.4: because the
// primary key is the array index, compaction renumbers keys and therefore
// must update all references. The paper recommends running it only when the
// system is idle; here it additionally refuses to run while snapshots pin
// the table or its referrers. Consolidation rebuilds the segment list —
// surviving rows re-chunk into freshly sealed segments plus a tail — which
// is the only way deleted slots are reclaimed on a table that seals
// segments (its inserts never reuse slots in place). A table with no
// deleted row whose rows already stand in sort-key order is left as it is,
// and the identity map returned.
func Consolidate(db *Database, t *Table) ([]int32, error) {
	return consolidate(db, t, 0, false)
}

// Arrange gives table t of db a fact table's layout in one pass: the sort
// keys (SetSortKeys' rules; none leaves the table's as they are), sealed
// encodings when encode is set, and a sealing threshold of segmentRows when
// t has none yet (a loaded image keeps the one it carries). With sort keys
// the live rows are gathered in key order straight into zoned, encoded
// segments and referrers are remapped, as Consolidate does; without, every
// row keeps its place, as SetSegmentTarget does.
func Arrange(db *Database, t *Table, segmentRows int, keys []string, encode bool) error {
	if len(keys) > 0 {
		if err := t.SetSortKeys(keys...); err != nil {
			return err
		}
		_, err := consolidate(db, t, segmentRows, encode)
		return err
	}
	if encode {
		if err := t.EncodeSealed(); err != nil {
			return err
		}
	}
	if segmentRows > 0 && t.SegmentTarget() == 0 {
		return t.SetSegmentTarget(segmentRows)
	}
	return nil
}

// consolidate is Consolidate; once its checks pass, it also gives t the
// sealing threshold segmentRows if t has none, and turns sealed encodings
// on if encode is set, so the one relayout builds them. Arrange calls it
// only for a table with sort keys.
func consolidate(db *Database, t *Table, segmentRows int, encode bool) ([]int32, error) {
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
	// perm[newPos] = old row that lands at newPos. When it keeps every row
	// in place and the call sets no threshold or encoding, the layout stands:
	// no relayout, no version bump, no referrer rewrite, so cached plans,
	// bindings and partials of t's segments stay valid. perm is then its own
	// inverse, the identity remap.
	perm := t.layoutPermLocked()
	newTarget := segmentRows > 0 && t.segTarget == 0
	if len(perm) == t.nrows && !newTarget && (t.encodeSealed || !encode) && isIdentity(perm) {
		t.free = t.free[:0]
		return perm, nil
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

	if newTarget {
		t.segTarget = segmentRows
		t.schemaVersion++
	}
	t.encodeSealed = t.encodeSealed || encode
	remap := make([]int32, t.nrows)
	for i := range remap {
		remap[i] = -1
	}
	for newPos, old := range perm {
		remap[old] = int32(newPos)
	}
	t.free = t.free[:0]
	t.relayoutLocked(perm)
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

// layoutPermLocked returns the rows of the compacted layout: the surviving
// rows in order, stable-sorted by the sort keys (sortRows) when the table
// has them (attribute-value reordering: zone maps tighten and equal key
// values form the runs RLE encoding exploits). relayoutLocked gathers every
// column through it, and its inverse is the remap referrer FKs are
// rewritten through, once.
func (t *Table) layoutPermLocked() []int32 {
	del := t.deletedLocked()
	perm := make([]int32, 0, t.nrows)
	for i := 0; i < t.nrows; i++ {
		if del == nil || !del.Get(i) {
			perm = append(perm, int32(i))
		}
	}
	if len(t.sortKeys) > 0 {
		keys := make([][]int64, len(t.sortKeys))
		for k, name := range t.sortKeys {
			col := t.joinedLocked(name)
			keys[k] = make([]int64, t.nrows)
			for i := range keys[k] {
				keys[k][i], _ = col.int64At(i)
			}
		}
		sortRows(perm, keys)
	}
	return perm
}

// isIdentity reports whether perm[i] == i for every i.
func isIdentity(perm []int32) bool {
	for i, r := range perm {
		if int(r) != i {
			return false
		}
	}
	return true
}

// sortRows stable-sorts perm, a list of rows, by keys[0][row], then
// keys[1][row], and so on: ties keep their order in perm. It is an LSD
// radix sort on 16-bit digits that sorts by the last key first. A key is
// sorted as each value's offset from the key's minimum, taken as uint64 so
// the full int64 range cannot overflow, and digits above the key's span
// take no pass: a key spanning fewer than 65 536 values, such as a date,
// takes one.
func sortRows(perm []int32, keys [][]int64) {
	if len(perm) < 2 {
		return
	}
	out, buf := perm, make([]int32, len(perm))
	count := make([]int, 1<<16)
	for k := len(keys) - 1; k >= 0; k-- {
		key := keys[k]
		lo := uint64(slices.Min(key))
		span := uint64(slices.Max(key)) - lo
		for shift := 0; shift < 64 && span>>shift > 0; shift += 16 {
			clear(count)
			for _, r := range out {
				count[(uint64(key[r])-lo)>>shift&0xffff]++
			}
			at := 0
			for d, c := range count {
				count[d], at = at, at+c
			}
			for _, r := range out {
				d := (uint64(key[r]) - lo) >> shift & 0xffff
				buf[count[d]] = r
				count[d]++
			}
			out, buf = buf, out
		}
	}
	copy(perm, out)
}

// gatherColumn builds a fresh plain column with out[i] = c[perm[i]].
func gatherColumn(c Column, perm []int32) Column { return c.(plainChunk).gather(perm) }

// remapFKLocked rewrites every value of an int32 FK column through remap.
// Values mapping to -1 belong to rows that are themselves deleted (checked
// by Consolidate) and are parked at 0, a safe in-range index. A sealed
// segment, whose values change, passes the write gate: it gets a new id,
// new maps and a rewritten copy of the chunk, re-encoded if it was encoded.
// The tail is rewritten in place. The column's zone is recomputed.
func (t *Table) remapFKLocked(col string, remap []int32) {
	for si := 0; si <= len(t.segs); si++ {
		s := t.rewriteLocked(si, true)
		encoded := ChunkEncoding(s.cols[col]) != EncPlain
		fk := s.writableLocked(col).(*Int32Col)
		for i := range fk.V[:s.n] {
			if nv := remap[fk.V[i]]; nv >= 0 {
				fk.V[i] = nv
			} else {
				fk.V[i] = 0
			}
		}
		if encoded {
			// The run/width structure may have changed with the new indexes.
			if ec, ok := EncodeChunk(fk, s.n); ok {
				s.cols[col] = ec
			}
		}
		z := Zone{Typ: TInt32}
		z.cover(s.cols[col], 0, s.zoned)
		s.zones[col] = z
	}
}
