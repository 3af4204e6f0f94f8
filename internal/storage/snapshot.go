package storage

import "maps"

// Snapshot is a stable read view of a table: the row count and, per
// segment, the deletion vector, the column arrays and the zone maps as of
// snapshot time. It provides the isolation the paper obtains from
// Hyper-style OS copy-on-write, simulated here at segment and chunk
// granularity:
//
//   - Sealed segments are values (segment.go): the snapshot shares them,
//     and a write to a sealed row puts a copy under a new id in the live
//     table's list, never touching the one the snapshot holds.
//   - Appends after the snapshot are invisible because the snapshot's copy
//     of the tail caps its chunk headers at its row count (an append either
//     fills elements past the cap or reallocates; neither touches what the
//     cap covers).
//   - In-place writes (Update, Delete, slot-reusing Insert) to a pinned
//     tail chunk or deletion vector make the writer clone it first, so the
//     snapshot keeps the old version (copy-on-write).
//
// Snapshots are cheap: only the tail is copied — O(#columns) headers, never
// a column copy — whatever the number of sealed segments. Release must be
// called when the reader is done so writers stop copying.
type Snapshot struct {
	live   *Table // nil once released
	frozen *Table
}

// Snapshot returns a stable view of the table's current contents and pins
// it against in-place writers until Release.
func (t *Table) Snapshot() *Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := &Table{
		Name:          t.Name,
		names:         t.names[:len(t.names):len(t.names)],
		fks:           make(map[string]*Table, len(t.fks)),
		colTypes:      maps.Clone(t.colTypes),
		colDicts:      maps.Clone(t.colDicts),
		nrows:         t.nrows,
		segTarget:     t.segTarget,
		segs:          t.segs[:len(t.segs):len(t.segs)],
		tail:          t.tail.frozenLocked(),
		version:       t.version,
		schemaVersion: t.schemaVersion,
	}
	// Pin the tail's chunks and bitmap: the next in-place write clones.
	if t.tail.shared == nil {
		t.tail.shared = make(map[string]bool, len(t.names))
	}
	for _, name := range t.names {
		t.tail.shared[name] = true
	}
	t.tail.delShared = t.tail.del != nil
	t.pins++
	return &Snapshot{live: t, frozen: f}
}

// Release unpins the snapshot. Using the snapshot after Release is safe in
// the sense that its arrays remain readable, but isolation from in-place
// writes is no longer guaranteed.
func (s *Snapshot) Release() {
	if s.live == nil {
		return
	}
	t := s.live
	t.mu.Lock()
	t.pins--
	if t.pins == 0 {
		t.tail.shared, t.tail.delShared = nil, false
	}
	t.mu.Unlock()
	s.live = nil
}

// NumRows returns the snapshot's row count.
func (s *Snapshot) NumRows() int { return s.frozen.nrows }

// Version returns the table's mutation counter as of snapshot time.
func (s *Snapshot) Version() uint64 { return s.frozen.version }

// Deleted is Table.Deleted as of the snapshot.
func (s *Snapshot) Deleted() *Bitmap { return s.frozen.Deleted() }

// IsDeleted reports whether row i was deleted as of the snapshot.
func (s *Snapshot) IsDeleted(i int) bool { return s.frozen.IsDeleted(i) }

// Column is Table.Column as of the snapshot: the named column capped to the
// snapshot row count, or nil for a table that seals segments.
func (s *Snapshot) Column(name string) Column { return s.frozen.Column(name) }

// SegViews returns the snapshot's per-segment views: the shared sealed
// segments and the pinned copy of the tail.
func (s *Snapshot) SegViews() []SegView { return s.frozen.SegViews() }

// AsTable returns the snapshot as a read-only Table made of the shared
// sealed segments and the pinned copy of the tail. Foreign keys are not
// wired; Database.Snapshot wires them across a consistent set of table
// snapshots. Mutating the returned table is undefined behaviour — it exists
// so query engines can scan a frozen version.
func (s *Snapshot) AsTable() *Table { return s.frozen }

// SnapshotSet pins a snapshot of every table in the set and returns the
// frozen versions with the foreign-key edges among them re-wired, so a
// schema graph can be built over the frozen tables. It is the rooted
// counterpart of Database.Snapshot: the query engine acquires the set of
// tables reachable from one fact table. release must be called when the
// reader is done so writers stop copying.
func SnapshotSet(tables []*Table) (frozen map[*Table]*Table, release func()) {
	snaps := make([]*Snapshot, 0, len(tables))
	frozen = make(map[*Table]*Table, len(tables))
	for _, t := range tables {
		s := t.Snapshot()
		snaps = append(snaps, s)
		frozen[t] = s.AsTable()
	}
	for _, t := range tables {
		for col, ref := range t.fks {
			if fref, ok := frozen[ref]; ok {
				frozen[t].fks[col] = fref
			}
		}
	}
	return frozen, func() {
		for _, s := range snaps {
			s.Release()
		}
	}
}

// Snapshot takes a consistent snapshot of every table in the database and
// returns a parallel read-only Database whose tables are the frozen
// versions, with all foreign-key edges re-wired among them. This is the
// multi-table isolation the paper borrows from Hyper's copy-on-write
// snapshots: OLAP queries run against the returned catalog (open an engine
// on its root table) while writers keep mutating the live tables.
//
// release must be called when the reader is done so writers stop copying.
func (db *Database) Snapshot() (snap *Database, release func()) {
	frozen, release := SnapshotSet(db.tables)
	snap = NewDatabase()
	for _, t := range db.tables {
		snap.MustAdd(frozen[t])
	}
	return snap, release
}
