package storage

import (
	"fmt"
	"sync"
)

// Table is an array family: a named set of equally long, aligned columns.
// The array index is the primary key; no explicit key column exists. A
// foreign-key column (always Int32) stores array indexes of its referenced
// table, which is the array index reference (AIR) mechanism that makes the
// whole schema a virtual universal table.
//
// Every table has one physical shape (segment.go): a list of sealed,
// immutable segments plus one mutable tail, each owning a chunk of every
// column. A table without a sealing threshold — every dimension, and any
// fact table nobody segmented — is the case with no sealed segments: its
// tail never seals, so each column is one contiguous array (Column) that
// AIR hops can index directly.
type Table struct {
	// Name is the table name, unique within a Database.
	Name string

	names    []string
	fks      map[string]*Table
	colTypes map[string]Type
	colDicts map[string]*Dict

	nrows int

	// segTarget is the sealing threshold in rows; 0 means the tail never
	// seals. segs are the sealed segments in row order and tail the one
	// segment that takes appends (never nil).
	segTarget int
	segs      []*Segment
	tail      *Segment
	nextSegID uint64

	// free lists the slots of lazily deleted tuples (§4.4); Insert reuses
	// them only while the table has no sealing threshold.
	free []int32

	pins int // guarded by mu; live snapshots of the table

	// Sealed-segment physical tuning (encoding.go, consolidate.go):
	// sortKeys orders rows whenever they are laid out anew (Arrange,
	// Consolidate); encodeSealed compresses sealed chunks (RLE /
	// frame-of-reference) at seal time.
	sortKeys     []string
	encodeSealed bool

	// version counts data mutations (insert, delete, update,
	// consolidation). Because pinned segments and chunks are never
	// written in place, two reads of the table at the same version observe
	// identical arrays.
	// schemaVersion counts structural changes (columns, foreign keys,
	// physical re-segmentation). Plan caches invalidate on the
	// schemaVersion of every table and on the version of dimensions, whose
	// arrays a plan captures; a root table's appends advance version
	// without invalidating plans, because plans bind the root's arrays per
	// segment at execution time.
	version       uint64
	schemaVersion uint64

	// mu serializes writers. Readers use Snapshot for isolation; reading
	// the live table concurrently with writers is not synchronized.
	mu sync.Mutex
}

// NewTable returns an empty table.
func NewTable(name string) *Table {
	t := &Table{
		Name:     name,
		fks:      make(map[string]*Table),
		colTypes: make(map[string]Type),
		colDicts: make(map[string]*Dict),
	}
	t.tail = t.newSegment(0)
	return t
}

// AddColumn adds a named plain column (a Vec or a DictCol), which becomes
// the tail's chunk as is (no copy, and no pass over its data: zone maps are
// computed when the first reader asks for them). The first column fixes the
// row count; every later column must match it. Declare all columns before
// giving the table a sealing threshold: adding columns afterwards is not
// supported.
func (t *Table) AddColumn(name string, c Column) error {
	if _, dup := t.colTypes[name]; dup {
		return fmt.Errorf("storage: table %s: duplicate column %s", t.Name, name)
	}
	if t.segTarget > 0 {
		return fmt.Errorf("storage: table %s: cannot add column %s to a segmented table", t.Name, name)
	}
	if _, ok := c.(plainChunk); !ok {
		return fmt.Errorf("storage: table %s: column %s is %T, not a plain chunk", t.Name, name, c)
	}
	if len(t.names) == 0 {
		t.nrows, t.tail.n = c.Len(), c.Len()
	} else if c.Len() != t.nrows {
		return fmt.Errorf("storage: table %s: column %s has %d rows, want %d",
			t.Name, name, c.Len(), t.nrows)
	}
	t.names = append(t.names, name)
	t.tail.cols[name] = c
	t.tail.zoned = 0 // the new chunk has no zone yet
	t.colTypes[name] = c.Type()
	if dc, ok := c.(*DictCol); ok {
		t.colDicts[name] = dc.Dict
	}
	t.schemaVersion++
	return nil
}

// MustAddColumn is AddColumn that panics on error; intended for generators
// and tests where the schema is static.
func (t *Table) MustAddColumn(name string, c Column) {
	if err := t.AddColumn(name, c); err != nil {
		panic(err)
	}
}

// Column returns the named column as one contiguous array — what AIR hops,
// schema bindings and the baseline engines index — or nil if the column is
// absent or the table seals segments, in which case its chunks are reached
// through SegViews. The lookup is ordered with writers, which replace a
// pinned chunk when they copy-on-write; reading the returned column's
// array beside a writer is, as everywhere on a live table, not.
func (t *Table) Column(name string) Column {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.segTarget > 0 {
		return nil
	}
	return t.tail.cols[name]
}

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string { return t.names }

// NumRows returns the number of physical rows, including lazily deleted ones.
func (t *Table) NumRows() int { return t.nrows }

// NumLive returns the number of rows not marked deleted.
func (t *Table) NumLive() int {
	live := t.nrows
	for s := range t.segments() {
		if s.del != nil {
			live -= s.del.Count()
		}
	}
	return live
}

// AddFK declares column col as a foreign key referencing ref. The column
// must exist and be an Int32 column whose values are array indexes of ref.
func (t *Table) AddFK(col string, ref *Table) error {
	typ, ok := t.colTypes[col]
	if !ok {
		return fmt.Errorf("storage: table %s: no column %s", t.Name, col)
	}
	if typ != TInt32 {
		return fmt.Errorf("storage: table %s: FK column %s must be int32, got %s",
			t.Name, col, typ)
	}
	t.fks[col] = ref
	t.schemaVersion++
	return nil
}

// MustAddFK is AddFK that panics on error.
func (t *Table) MustAddFK(col string, ref *Table) {
	if err := t.AddFK(col, ref); err != nil {
		panic(err)
	}
}

// FK returns the table referenced by column col, or nil.
func (t *Table) FK(col string) *Table { return t.fks[col] }

// FKs returns a copy of the FK map (column name to referenced table).
func (t *Table) FKs() map[string]*Table {
	m := make(map[string]*Table, len(t.fks))
	for k, v := range t.fks {
		m[k] = v
	}
	return m
}

// DataVersion returns the data mutation counter. It increases on every
// insert, delete, update, and consolidation; snapshots taken at equal
// versions see identical data. Advancing a root table's DataVersion does
// NOT invalidate compiled plans: plans bind root arrays per segment at
// execution time.
func (t *Table) DataVersion() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// SchemaVersion returns the structural mutation counter: it increases when
// columns or foreign keys are declared and when the table is physically
// re-segmented. Plan caches invalidate on any SchemaVersion change.
func (t *Table) SchemaVersion() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.schemaVersion
}

// Pins returns the number of live snapshots currently pinning the table.
func (t *Table) Pins() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pins
}

// Deleted returns the deletion vector over the contiguous arrays Column
// hands out, or nil if no row was ever deleted. Tables that seal segments
// keep one bitmap per segment (see SegViews) and report nil here.
func (t *Table) Deleted() *Bitmap {
	if t.segTarget > 0 {
		return nil
	}
	return t.tail.del
}

// IsDeleted reports whether row i is marked deleted.
func (t *Table) IsDeleted(i int) bool {
	if i < 0 || i >= t.nrows {
		return false
	}
	s, _, local := t.locateLocked(i)
	return s.del != nil && s.del.Get(local)
}

// ValidateAIR checks that every foreign-key value is a valid, live index of
// the referenced table. This is the core storage invariant of A-Store.
func (t *Table) ValidateAIR() error {
	for col, ref := range t.fks {
		err := t.forEachInt32(col, func(chunk []int32, base int, del *Bitmap) error {
			for i, v := range chunk {
				if del != nil && del.Get(i) {
					continue
				}
				if v < 0 || int(v) >= ref.NumRows() {
					return fmt.Errorf("storage: %s.%s[%d]=%d out of range for %s (%d rows)",
						t.Name, col, base+i, v, ref.Name, ref.NumRows())
				}
				if ref.IsDeleted(int(v)) {
					return fmt.Errorf("storage: %s.%s[%d]=%d references deleted row of %s",
						t.Name, col, base+i, v, ref.Name)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachInt32 visits the chunks of an int32 column, one per segment, with
// their global base offsets and deletion bitmaps (nil when nothing in the
// segment is deleted).
func (t *Table) forEachInt32(col string, fn func(chunk []int32, base int, del *Bitmap) error) error {
	if typ, ok := t.colTypes[col]; !ok || typ != TInt32 {
		return fmt.Errorf("storage: table %s: column %s is not int32", t.Name, col)
	}
	for s := range t.segments() {
		if err := fn(DecodeChunk(s.cols[col]).(*Int32Col).V[:s.n], s.base, s.del); err != nil {
			return err
		}
	}
	return nil
}

// MemBytes estimates the resident size of the table's arrays in bytes
// (dictionaries counted once; Go string headers counted, contents estimated).
func (t *Table) MemBytes() int64 {
	var b int64
	seen := make(map[*Dict]bool)
	for s := range t.segments() {
		for _, name := range t.names {
			b += colMemBytes(s.cols[name], seen)
		}
	}
	return b
}

func colMemBytes(c Column, seen map[*Dict]bool) int64 {
	switch c := c.(type) {
	case *RLECol:
		return int64(4*len(c.End)) + colMemBytes(c.Vals, seen)
	case *DictCol:
		b := int64(encodedBytes(c, c.Len()))
		if !seen[c.Dict] {
			seen[c.Dict] = true
			for _, s := range c.Dict.Values() {
				b += int64(len(s)) + 16
			}
		}
		return b
	}
	return int64(encodedBytes(c, c.Len()))
}

// SetSortKeys configures the columns a table's live rows are ordered by
// whenever they are laid out anew — by Arrange, which db.Open runs, and by
// every Consolidate (attribute-value reordering: clustering tightens zone
// maps and creates the runs RLE needs). Setting keys moves no row. Keys must be integer-valued —
// int32/int64 values, AIR foreign keys, or dictionary codes; strings and
// floats are rejected. Passing no columns clears the keys.
func (t *Table) SetSortKeys(cols ...string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range cols {
		typ, ok := t.colTypes[c]
		if !ok {
			return fmt.Errorf("storage: table %s: no sort-key column %s", t.Name, c)
		}
		if typ == TString || typ == TFloat64 {
			return fmt.Errorf("storage: table %s: sort-key column %s has non-integer type %s", t.Name, c, typ)
		}
	}
	t.sortKeys = append([]string(nil), cols...)
	return nil
}

// SortKeys returns the configured sort keys.
func (t *Table) SortKeys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.sortKeys...)
}

// EncodeSealed turns on compressed sealed-chunk encodings: existing sealed
// segments are encoded in place, and every segment sealed afterwards is
// encoded at seal time. Encodings stay on for the table's lifetime. An
// encoded segment gets a new chunk map and keeps its id, since its values
// are unchanged; it fails while snapshots pin the table because pinned
// readers hold the current chunk headers.
func (t *Table) EncodeSealed() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.encodeSealed {
		return nil
	}
	if t.pins > 0 {
		return fmt.Errorf("storage: table %s: cannot encode sealed segments while pinned by %d snapshot(s)", t.Name, t.pins)
	}
	t.encodeSealed = true
	for _, s := range t.segs {
		t.encodeSegmentLocked(s)
	}
	t.version++
	return nil
}

// SealedEncodings reports whether sealed chunks are encoded at seal time.
func (t *Table) SealedEncodings() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.encodeSealed
}

// Database is a catalog of tables; it exists so that operations that must see
// all referrers of a table (consolidation, AIR validation) can find them.
type Database struct {
	tables []*Table
	byName map[string]*Table
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{byName: make(map[string]*Table)}
}

// Add registers a table. Adding two tables with one name is an error.
func (db *Database) Add(t *Table) error {
	if _, dup := db.byName[t.Name]; dup {
		return fmt.Errorf("storage: duplicate table %s", t.Name)
	}
	db.tables = append(db.tables, t)
	db.byName[t.Name] = t
	return nil
}

// MustAdd is Add that panics on error.
func (db *Database) MustAdd(t *Table) {
	if err := db.Add(t); err != nil {
		panic(err)
	}
}

// Table returns the named table, or nil.
func (db *Database) Table(name string) *Table { return db.byName[name] }

// Tables returns the registered tables in insertion order.
func (db *Database) Tables() []*Table { return db.tables }

// RefEdge identifies a foreign-key column of From referencing some table.
type RefEdge struct {
	From *Table
	Col  string
}

// Referrers returns every FK column in the database that references t.
func (db *Database) Referrers(t *Table) []RefEdge {
	var out []RefEdge
	for _, tab := range db.tables {
		for col, ref := range tab.fks {
			if ref == t {
				out = append(out, RefEdge{From: tab, Col: col})
			}
		}
	}
	return out
}

// ValidateAIR validates the AIR invariant for every table.
func (db *Database) ValidateAIR() error {
	for _, t := range db.tables {
		if err := t.ValidateAIR(); err != nil {
			return err
		}
	}
	return nil
}
