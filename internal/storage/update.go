package storage

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
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
// Every write takes one path (write): each value is converted once, into a
// staging chunk, before any lock is taken; foreign keys are checked and the
// write applied under the referenced tables' locks and the table's own.
// Readers that need isolation take a Snapshot (snapshot.go); a write
// to a sealed row goes through the write gate (rewriteLocked), and an
// in-place write to a snapshot-pinned tail chunk copies the chunk first.

// Append adds a batch of tuples, each mapping every column of the table and
// no other to a value, and returns their row indexes (primary keys) in
// batch order. The batch is all or nothing: a wrong column set, a value
// that does not convert, or a foreign key that is not a live row of the
// table it references (ErrForeignKey) rejects it with an error naming the
// row and leaves the table as it was; an accepted batch is published whole,
// with one version bump. A table that never seals first fills the slots of
// deleted tuples (elsewhere a freed slot may lie in a sealed segment, and
// Consolidate reclaims it); the rest goes to the end of the tail, which
// seals each time it fills.
func (t *Table) Append(rows []map[string]any) ([]int, error) {
	vals := make([]stager, len(t.names))
	for j, name := range t.names {
		vals[j] = t.stagingChunk(name, len(rows))
	}
	for r, row := range rows {
		for j, name := range t.names {
			v, ok := row[name]
			if !ok || len(row) > len(t.names) {
				return nil, t.columnError(r, row, name)
			}
			if err := vals[j].push(v); err != nil {
				return nil, fmt.Errorf("storage: table %s: row %d: column %s: %w", t.Name, r, name, err)
			}
		}
	}
	var out []int
	err := t.write(t.names, vals, 0, func() error {
		out = make([]int, 0, len(rows))
		for r := 0; r < len(rows); {
			if n := len(t.free); n > 0 && t.segTarget == 0 {
				row := int(t.free[n-1])
				t.free = t.free[:n-1]
				for j, name := range t.names {
					t.tail.putLocked(name, row, vals[j], r)
				}
				t.tail.writableDelLocked().Clear(row)
				out, r = append(out, row), r+1
				continue
			}
			t.sealFullTailLocked() // a loaded tail may already be full
			tail, k := t.tail, len(rows)-r
			if t.segTarget > 0 {
				k = min(k, t.segTarget-tail.n)
			}
			for j, name := range t.names {
				tail.cols[name].(plainChunk).appendRange(vals[j], r, r+k)
			}
			for range k {
				out, tail.n = append(out, tail.base+tail.n), tail.n+1
			}
			t.nrows, r = t.nrows+k, r+k
			if tail.del != nil && tail.del.Len() < tail.n {
				tail.writableDelLocked()
			}
		}
		t.sealFullTailLocked()
		return nil
	})
	return out, err
}

// Insert adds one tuple and returns its row index: Append of a one-row
// batch.
func (t *Table) Insert(vals map[string]any) (int, error) {
	rows, err := t.Append([]map[string]any{vals})
	if err != nil {
		return -1, err
	}
	return rows[0], nil
}

// columnError names what is wrong with row r's column set: a column the
// table lacks, or else the missing one. Append calls it only on a wrong set.
func (t *Table) columnError(r int, row map[string]any, missing string) error {
	for col := range row {
		if _, ok := t.colTypes[col]; !ok {
			return fmt.Errorf("storage: table %s: row %d: insert of unknown column %s", t.Name, r, col)
		}
	}
	return fmt.Errorf("storage: table %s: row %d: insert missing column %s", t.Name, r, missing)
}

// Delete marks row i out-of-date in its segment's deletion vector and
// records its slot for reuse. It does not cascade; callers are responsible
// for not deleting a tuple that is still referenced (ValidateAIR detects
// violations).
func (t *Table) Delete(i int) error {
	return t.write(nil, nil, 0, func() error {
		if i < 0 || i >= t.nrows {
			return fmt.Errorf("storage: table %s: delete row %d out of range", t.Name, i)
		}
		s, si, local := t.locateLocked(i)
		if s.del != nil && s.del.Get(local) {
			return fmt.Errorf("storage: table %s: row %d already deleted", t.Name, i)
		}
		t.rewriteLocked(si, false).writableDelLocked().Set(local)
		t.free = append(t.free, int32(i))
		return nil
	})
}

// Update overwrites column col of row i. In-place updating never touches
// foreign keys of referring tables because the primary key (the array
// index) does not change. A foreign key that is not a live row of the table
// it references fails with ErrForeignKey, and nothing is written.
func (t *Table) Update(i int, col string, v any) error {
	c := t.stagingChunk(col, 1)
	if c == nil {
		return fmt.Errorf("storage: table %s: no column %s", t.Name, col)
	}
	if err := c.push(v); err != nil {
		return fmt.Errorf("storage: table %s: row %d: column %s: %w", t.Name, i, col, err)
	}
	return t.write([]string{col}, []stager{c}, i, func() error {
		if i < 0 || i >= t.nrows {
			return fmt.Errorf("storage: table %s: update row %d out of range", t.Name, i)
		}
		s, si, local := t.locateLocked(i)
		if s.del != nil && s.del.Get(local) {
			return fmt.Errorf("storage: table %s: update of deleted row %d", t.Name, i)
		}
		t.rewriteLocked(si, true).putLocked(col, local, c, 0)
		return nil
	})
}

// ErrForeignKey reports a foreign-key value that is not a live row of the
// table it references. AIR hops index the referenced arrays directly, so
// such a value, once stored, would fail every query that joins through it.
var ErrForeignKey = errors.New("foreign key is not a live row of the referenced table")

// stager is a write's staging chunk: push converts a value to what the
// column stores (convert) and appends it.
type stager interface {
	Column
	push(v any) error
}

// stagingChunk returns an empty staging chunk with room for n values of
// column name — a Vec of the column's type, of strings for a dictionary
// column (interned as the write is applied) — or nil for no such column.
func (t *Table) stagingChunk(name string, n int) stager {
	typ, ok := t.colTypes[name]
	if typ == TDict {
		typ = TString
	}
	if !ok {
		return nil
	}
	return newChunk(typ, nil, n).(stager)
}

// write runs apply, a write whose values for columns cols are staged in
// vals (row r of them is the table's row first+r), under t's lock once
// every staged foreign key names a live row. It locks the referenced tables
// with t (lockTables) and holds them from the check through apply, so no
// Delete or Consolidate of theirs comes in between. A write apply accepts
// bumps the version once.
func (t *Table) write(cols []string, vals []stager, first int, apply func() error) error {
	var buf [8]*Table
	tabs := append(buf[:0], t)
	for _, col := range cols {
		if ref := t.fks[col]; ref != nil && !slices.Contains(tabs, ref) {
			tabs = append(tabs, ref)
		}
	}
	lockTables(tabs)
	defer unlockTables(tabs)
	for j, col := range cols {
		if ref := t.fks[col]; ref != nil {
			for r, x := range vals[j].(*Int32Col).V {
				if x < 0 || int(x) >= ref.nrows {
					return fmt.Errorf("storage: table %s: row %d: %s=%d out of range for %s (%d rows): %w", t.Name, first+r, col, x, ref.Name, ref.nrows, ErrForeignKey)
				}
				if s, _, local := ref.locateLocked(int(x)); s.del != nil && s.del.Get(local) {
					return fmt.Errorf("storage: table %s: row %d: %s=%d references a deleted row of %s: %w", t.Name, first+r, col, x, ref.Name, ErrForeignKey)
				}
			}
		}
	}
	if err := apply(); err != nil {
		return err
	}
	t.version++
	return nil
}

// lockTables locks tabs, distinct tables, in the one order every lock on
// more than one table is taken — by rank, the longest foreign-key path from
// a table, then by name, so a writer's referenced tables before its own and
// Consolidate's table before its referrers — and unlockTables undoes it.
// Locks taken in one order cannot deadlock.
func lockTables(tabs []*Table) {
	slices.SortFunc(tabs, func(a, b *Table) int {
		return cmp.Or(a.rank(nil)-b.rank(nil), strings.Compare(a.Name, b.Name))
	})
	for _, t := range tabs {
		t.mu.Lock()
	}
}

func unlockTables(tabs []*Table) {
	for _, t := range tabs {
		t.mu.Unlock()
	}
}

// rank returns the length of the longest foreign-key path from t that
// leaves path, the tables walked to reach t (a cycle, which no lock order
// can serve, is cut there); a table that references none ends it unwalked.
func (t *Table) rank(path []*Table) int {
	r := 0
	for _, ref := range t.fks {
		switch {
		case ref == t || slices.Contains(path, ref):
		case len(ref.fks) == 0:
			r = max(r, 1)
		default:
			r = max(r, ref.rank(append(path, t))+1)
		}
	}
	return r
}

// putLocked stores row j of src, a staging chunk, at local row i of column
// col, copy-on-write where the chunk is pinned or encoded (writableLocked),
// and widens the column's zone to cover it (conservative: zones may
// overcover after overwrites, which only costs pruning opportunity, never
// correctness).
func (s *Segment) putLocked(col string, i int, src Column, j int) {
	c := s.writableLocked(col)
	c.(plainChunk).put(i, src, j)
	if z := s.zones[col]; i < s.zoned && z.cover(c, i, i+1) {
		z.Typ = c.Type()
		s.zones[col] = z
	}
}
