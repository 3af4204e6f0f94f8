package storage

import (
	"errors"
	"fmt"
)

// This file implements the update mechanisms of §4.4:
//
//   - Insertion by appending to the tail, with free-slot reuse on tables
//     that never seal: deleted tuples leave holes that later insertions
//     fill. Slot reuse is sound because the primary key is the array index,
//     a surrogate with no semantic meaning.
//   - Lazy deletion via a deletion bit vector; no cascade modification.
//   - In-place updates (variable-length values live out of line, so even
//     varchar updates are in place).
//
// Writers must hold the table's internal mutex, which these methods take.
// Readers that need isolation take a Snapshot (snapshot.go); a write to a
// sealed row goes through the write gate (rewriteLocked), and an in-place
// write to a snapshot-pinned tail chunk copies the chunk first.

// Insert adds a tuple with the given column values and returns its row index
// (its primary key). vals must contain a value for every column of the
// table, and no other. The tuple is appended to the tail, which seals when
// it reaches the table's sealing threshold; a table without one first
// reuses the slot of a deleted tuple if any is free. A foreign key that is
// not a live row of the table it references fails with ErrForeignKey, and
// nothing is inserted.
func (t *Table) Insert(vals map[string]any) (int, error) {
	for col, ref := range t.fks {
		if err := t.checkFK(col, ref, vals[col]); err != nil {
			return -1, err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(vals) > len(t.names) {
		return -1, t.columnError(vals, "")
	}
	t.sealFullTailLocked() // a loaded tail may already be full
	// Validate before mutating so a bad value cannot leave a torn tuple.
	var cbuf [32]plainChunk
	var vbuf [32]any
	chunks, vs := cbuf[:0], vbuf[:0]
	for _, name := range t.names {
		v, ok := vals[name]
		if !ok {
			return -1, t.columnError(vals, name)
		}
		c := t.tail.cols[name].(plainChunk)
		if err := c.check(v); err != nil {
			return -1, fmt.Errorf("storage: table %s: column %s: %w", t.Name, name, err)
		}
		chunks, vs = append(chunks, c), append(vs, v)
	}

	// A freed slot may lie in a sealed segment, so only a table that never
	// seals reuses them; elsewhere Consolidate reclaims the holes.
	if n := len(t.free); n > 0 && t.segTarget == 0 {
		row := int(t.free[n-1])
		t.free = t.free[:n-1]
		for i, name := range t.names {
			if err := t.tail.setLocked(name, row, vs[i]); err != nil {
				return -1, err
			}
		}
		t.tail.writableDelLocked().Clear(row)
		t.version++
		return row, nil
	}

	tail := t.tail
	for i, c := range chunks {
		if err := c.push(vs[i]); err != nil {
			return -1, err
		}
	}
	row := tail.base + tail.n
	tail.n++
	t.nrows++
	if tail.del != nil && tail.del.Len() < tail.n {
		tail.writableDelLocked()
	}
	t.sealFullTailLocked()
	t.version++
	return row, nil
}

// columnError names what is wrong with an Insert's column set: a column the
// table lacks, or else missing. Insert calls it only on a wrong set.
func (t *Table) columnError(vals map[string]any, missing string) error {
	for col := range vals {
		if _, ok := t.colTypes[col]; !ok {
			return fmt.Errorf("storage: table %s: insert of unknown column %s", t.Name, col)
		}
	}
	return fmt.Errorf("storage: table %s: insert missing column %s", t.Name, missing)
}

// Delete marks row i out-of-date in its segment's deletion vector and
// records its slot for reuse. It does not cascade; callers are responsible
// for not deleting a tuple that is still referenced (ValidateAIR detects
// violations).
func (t *Table) Delete(i int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= t.nrows {
		return fmt.Errorf("storage: table %s: delete row %d out of range", t.Name, i)
	}
	s, si, local := t.locateLocked(i)
	if s.del != nil && s.del.Get(local) {
		return fmt.Errorf("storage: table %s: row %d already deleted", t.Name, i)
	}
	t.rewriteLocked(si, false).writableDelLocked().Set(local)
	t.free = append(t.free, int32(i))
	t.version++
	return nil
}

// Update overwrites column col of row i. In-place updating never touches
// foreign keys of referring tables because the primary key (the array
// index) does not change. A foreign key that is not a live row of the table
// it references fails with ErrForeignKey, and nothing is written.
func (t *Table) Update(i int, col string, v any) error {
	if ref := t.fks[col]; ref != nil {
		if err := t.checkFK(col, ref, v); err != nil {
			return err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= t.nrows {
		return fmt.Errorf("storage: table %s: update row %d out of range", t.Name, i)
	}
	s, si, local := t.locateLocked(i)
	if s.del != nil && s.del.Get(local) {
		return fmt.Errorf("storage: table %s: update of deleted row %d", t.Name, i)
	}
	// The tail's chunk stands in for the column's type: it is always plain,
	// where the row's own chunk may be an encoded one.
	c, ok := t.tail.cols[col]
	if !ok {
		return fmt.Errorf("storage: table %s: no column %s", t.Name, col)
	}
	if err := c.(plainChunk).check(v); err != nil {
		return fmt.Errorf("storage: table %s: column %s: %w", t.Name, col, err)
	}
	if err := t.rewriteLocked(si, true).setLocked(col, local, v); err != nil {
		return err
	}
	t.version++
	return nil
}

// ErrForeignKey reports a foreign-key value that is not a live row of the
// table it references. AIR hops index the referenced arrays directly, so
// such a value, once stored, would fail every query that joins through it.
var ErrForeignKey = errors.New("foreign key is not a live row of the referenced table")

// checkFK checks that v, the value of FK column col, is a live row of ref.
// It reads ref under ref's own lock, before the caller takes t's:
// Consolidate locks a dimension and then its fact table, so the other order
// could deadlock. A row of ref deleted after the check is, as for Delete
// itself, the deleter's to avoid. The check reads v as the column stores
// it; a value that does not convert is left to the caller's type check.
func (t *Table) checkFK(col string, ref *Table, v any) error {
	x, err := convert[int32](v)
	if err != nil {
		return nil
	}
	ref.mu.Lock()
	defer ref.mu.Unlock()
	if x < 0 || int(x) >= ref.nrows {
		return fmt.Errorf("storage: table %s: %s=%d out of range for %s (%d rows): %w", t.Name, col, x, ref.Name, ref.nrows, ErrForeignKey)
	}
	if s, _, local := ref.locateLocked(int(x)); s.del != nil && s.del.Get(local) {
		return fmt.Errorf("storage: table %s: %s=%d references a deleted row of %s: %w", t.Name, col, x, ref.Name, ErrForeignKey)
	}
	return nil
}

// setLocked stores v at local row i of column col, copy-on-write where the
// chunk is sealed (past the write gate) or pinned, and widens the column's
// zone to cover it (conservative: zones may overcover after overwrites,
// which only costs pruning opportunity, never correctness).
func (s *Segment) setLocked(col string, i int, v any) error {
	c := s.writableLocked(col)
	if err := c.(plainChunk).set(i, v); err != nil {
		return err
	}
	if z := s.zones[col]; i < s.zoned && z.cover(c, i, i+1) {
		z.Typ = c.Type()
		s.zones[col] = z
	}
	return nil
}
