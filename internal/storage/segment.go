package storage

import (
	"fmt"
	"iter"
	"maps"
	"slices"
)

// This file implements the one physical shape of a table.
//
// A table stores its rows as a list of immutable *sealed* segments plus one
// mutable *tail* segment. Each segment owns a chunk of every column, a local
// deletion bitmap, and per-column zone maps (min/max summaries) that let
// scans skip whole segments whose value range cannot match a predicate.
// SetSegmentTarget gives a table its sealing threshold: the tail seals when
// it reaches that many rows and a fresh tail takes over. A table that was
// never given one — every dimension — is the same thing with no sealed
// segments and a tail that grows by amortised reallocation; its chunks are
// whole columns, which is what keeps AIR chain lookups (fk[x] at arbitrary
// positions) a single array index with no per-hop segment arithmetic.
//
// The layout buys three properties:
//
//   - Cheap snapshots: a sealed segment is a value, so a snapshot shares
//     the sealed segments as they are and copies only the tail, whose
//     headers it caps at its row count; appends — in place or into a
//     reallocated array — never show through a pinned reader, and a pin
//     costs the same whatever the number of sealed segments.
//   - Append-stable plans: compiled plans bind root column arrays per
//     segment. Appends create rows only in the tail (and seal new
//     segments), leaving every previously bound array untouched, so live
//     ingest does not invalidate compiled plans (see SchemaVersion vs
//     DataVersion).
//   - Data skipping: per-segment zone maps over numeric, dictionary-code,
//     and AIR foreign-key columns let the engine prune segments per
//     predicate before any row work.

// DefaultSegmentRows is the default sealing threshold used by layers that
// segment fact tables without an explicit target (db.Open, astore-serve).
const DefaultSegmentRows = 1 << 17

// Zone is a min/max summary of one column chunk within a segment. Numeric
// columns summarize values; dictionary columns summarize codes (the code is
// itself an AIR into the dictionary, so equality predicates translate to
// code ranges); AIR foreign-key columns summarize referenced row indexes.
type Zone struct {
	// Typ is the summarized column's physical type.
	Typ Type
	// MinI and MaxI bound integer-valued chunks (TInt32, TInt64, TDict
	// codes).
	MinI, MaxI int64
	// MinF and MaxF bound float chunks (TFloat64).
	MinF, MaxF float64
	// OK reports whether the zone summarizes at least one row; a !OK zone
	// means the chunk is empty (nothing can match).
	OK bool
}

// widenInt extends the zone to include v.
func (z *Zone) widenInt(v int64) {
	if !z.OK {
		z.MinI, z.MaxI = v, v
		z.OK = true
		return
	}
	if v < z.MinI {
		z.MinI = v
	}
	if v > z.MaxI {
		z.MaxI = v
	}
}

// widenFloat extends the zone to include v.
func (z *Zone) widenFloat(v float64) {
	if !z.OK {
		z.MinF, z.MaxF = v, v
		z.OK = true
		return
	}
	if v < z.MinF {
		z.MinF = v
	}
	if v > z.MaxF {
		z.MaxF = v
	}
}

// cover widens z over rows [lo, hi) of a chunk and reports whether chunks of
// this kind are summarized at all (strings are not).
func (z *Zone) cover(c Column, lo, hi int) bool {
	switch c := c.(type) {
	case *RLECol:
		// The zone of rows [lo, hi) is the zone of the runs covering them.
		if hi > lo {
			return z.cover(c.Vals, FindRun(c.End, lo), FindRun(c.End, hi-1)+1)
		}
		return true
	case *FoRCol:
		for i := lo; i < hi; i++ {
			z.widenInt(c.At(i))
		}
		return true
	}
	var ok bool
	*z, ok = c.(plainChunk).cover(*z, lo, hi)
	return ok
}

// Segment is one horizontal chunk of a table: a per-column array family, a
// local deletion bitmap, and per-column zone maps. A sealed segment is a
// value, shared by snapshots, views and segment lists alike: its maps are
// written only before it is first shared — as the tail it was seals and is
// zoned, or as an image loads — and its chunks never. EncodeSealed and
// Consolidate's referrer remap, which refuse while the table is pinned,
// give it new maps instead, and a write to one of its rows goes through one
// gate (rewriteLocked), which puts a shallow copy under a new id in its
// place. So the id names a sealed segment's contents, and a cache keyed by
// it needs no telling that they changed. All fields are guarded by the
// owning table's mutex.
type Segment struct {
	id     uint64
	base   int // global row index of the segment's first row
	n      int // rows currently present
	cap    int // row capacity (the table's sealing threshold; 0 = unbounded)
	sealed bool

	cols map[string]Column

	// zones summarize rows [0, zoned) of every zoneable chunk. Appends and
	// bulk loads leave zoned behind n; the next reader that needs the zones
	// catches up over just the new rows (coverZonesLocked), so no writer
	// ever pays a pass over data nobody has asked about.
	zones map[string]Zone
	zoned int

	del *Bitmap

	// shared and delShared mark chunks and a bitmap a live snapshot pins (the
	// tail's, or a gate copy's while pinned): an in-place write clones first.
	shared    map[string]bool
	delShared bool

	// frozen marks a snapshot's pinned copy of the tail.
	frozen bool
}

// SegView is a stable read view of one segment: the visible row count, the
// deletion bitmap, the chunk headers, and the zone maps, captured under the
// table mutex.
type SegView struct {
	// ID names a sealed segment's contents: every write to one gives it a
	// new id. The tail keeps its id as it grows.
	ID uint64
	// Base is the global row index of the view's first row.
	Base int
	// N is the number of visible rows; appends past N are invisible.
	N int
	// Del is the deletion bitmap over local rows [0, N), or nil.
	Del *Bitmap
	// Cols maps column names to chunk headers (local indexes [0, N)).
	Cols map[string]Column
	// Zones maps column names to min/max summaries covering at least the
	// visible rows (conservative: in-place updates only ever widen them).
	Zones map[string]Zone
	// Sealed reports whether the segment was sealed at capture time.
	Sealed bool
}

// newSegment allocates an empty segment with per-column arrays of the given
// row capacity, so a tail with a sealing threshold fills in place without
// reallocating.
func (t *Table) newSegment(capacity int) *Segment {
	s := &Segment{
		id:    t.nextSegID,
		cap:   capacity,
		cols:  make(map[string]Column, len(t.names)),
		zones: make(map[string]Zone, len(t.names)),
	}
	t.nextSegID++
	for _, name := range t.names {
		s.cols[name] = newChunk(t.colTypes[name], t.colDicts[name], capacity)
	}
	return s
}

// newChunk returns an empty plain chunk of type typ with room for capacity
// rows; dict is the shared dictionary of a TDict chunk.
func newChunk(typ Type, dict *Dict, capacity int) Column {
	switch typ {
	case TInt32:
		return newVec[int32](capacity)
	case TInt64:
		return newVec[int64](capacity)
	case TFloat64:
		return newVec[float64](capacity)
	case TString:
		return newVec[string](capacity)
	case TDict:
		return &DictCol{Codes: make([]int32, 0, capacity), Dict: dict}
	default:
		return nil
	}
}

func newVec[T Elem](capacity int) Column { return &Vec[T]{V: make([]T, 0, capacity)} }

// coverZonesLocked extends the zone maps over the rows added since they
// were last brought up to date.
func (s *Segment) coverZonesLocked() {
	if s.zoned >= s.n {
		return
	}
	for name, c := range s.cols {
		z := s.zones[name]
		z.Typ = c.Type()
		if z.cover(c, s.zoned, s.n) {
			s.zones[name] = z
		}
	}
	s.zoned = s.n
}

// sealLocked makes the segment immutable: exact zones (in-place updates may
// have left them wider than the data), then the sealed-chunk encodings.
func (t *Table) sealLocked(s *Segment) {
	s.zones, s.zoned = make(map[string]Zone, len(s.cols)), 0
	s.coverZonesLocked()
	s.sealed = true
	t.encodeSegmentLocked(s)
	t.segs = append(t.segs, s)
}

// sealFullTailLocked seals the tail once it holds the table's sealing
// threshold of rows, and installs a fresh one. A table without a threshold
// never seals. Caller holds t.mu.
func (t *Table) sealFullTailLocked() {
	if t.segTarget == 0 || t.tail.n < t.segTarget {
		return
	}
	full := t.tail
	t.sealLocked(full)
	t.tail = t.newSegment(t.segTarget)
	t.tail.base = full.base + full.n
}

// SegmentTarget returns the sealing threshold in rows (0: the tail never
// seals).
func (t *Table) SegmentTarget() int { return t.segTarget }

// SegmentCounts returns the number of sealed segments and the total number
// of segments (sealed + tail).
func (t *Table) SegmentCounts() (sealed, total int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.segs), len(t.segs) + 1
}

// SetSegmentTarget gives the table a sealing threshold (rows per segment),
// re-chunking existing rows. Global row indexes — the primary keys — are
// preserved, so foreign keys pointing at this table stay valid. The
// conversion is a physical layout change: it bumps SchemaVersion
// (invalidating compiled plans once) and fails while snapshots pin the
// table. Re-targeting rebuilds the segments at the new threshold.
func (t *Table) SetSegmentTarget(target int) error {
	if target < 1 {
		return fmt.Errorf("storage: table %s: segment target %d < 1", t.Name, target)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pins > 0 {
		return fmt.Errorf("storage: table %s: cannot re-segment while pinned by %d snapshot(s)", t.Name, t.pins)
	}
	t.segTarget = target
	t.relayoutLocked(nil)
	t.schemaVersion++
	t.version++
	return nil
}

// relayoutLocked rebuilds the segment list at the current sealing
// threshold: sealed segments of exactly segTarget rows, then a tail. With
// perm nil every row stays where it is, deletion bits included; otherwise
// new row i is old row perm[i] and no row is deleted. It is the one way a
// table's rows are laid out anew (SetSegmentTarget, Consolidate and
// Arrange).
//
// It works one column at a time: the column's old chunks are joined into
// one plain array (encoded chunks decoded), which is gathered through perm
// (or copied, perm nil) into the new segments one chunk at a time, each
// sealed chunk zoned and encoded as it is built. So beside the old and the
// new segments it never holds more than two whole copies of one column.
// Rows that all fit the tail — always, without a sealing threshold — are
// not split: the tail adopts the whole array. The old segments are
// discarded whole, so a stale reader keeps a coherent (if outdated) view.
// Caller holds t.mu.
func (t *Table) relayoutLocked(perm []int32) {
	nrows, del := len(perm), (*Bitmap)(nil)
	if perm == nil {
		nrows, del = t.nrows, t.deletedLocked()
	}
	// The new segments' shells; their chunks are built column by column.
	var segs []*Segment
	for at := 0; t.segTarget > 0 && nrows-at > t.segTarget; at += t.segTarget {
		s := t.newSegment(0)
		s.base, s.n, s.cap, s.sealed = at, t.segTarget, t.segTarget, true
		segs = append(segs, s)
	}
	tail := t.newSegment(0)
	tail.base, tail.cap = len(segs)*t.segTarget, t.segTarget
	tail.n = nrows - tail.base
	all := append(segs[:len(segs):len(segs)], tail)

	for _, name := range t.names {
		col := t.joinedLocked(name)
		if len(segs) == 0 {
			if perm != nil {
				col = col.gather(perm).(plainChunk)
			}
			tail.cols[name] = col
			continue
		}
		for _, s := range all {
			var c plainChunk
			if perm != nil {
				c = col.gather(perm[s.base : s.base+s.n]).(plainChunk)
			} else {
				c = newChunk(t.colTypes[name], t.colDicts[name], s.cap).(plainChunk)
				c.appendRange(col, s.base, s.base+s.n)
			}
			s.cols[name] = c
			if !s.sealed {
				continue
			}
			z := Zone{Typ: c.Type()}
			if z.cover(c, 0, s.n) {
				s.zones[name] = z
			}
			if t.encodeSealed {
				if ec, ok := EncodeChunk(c, s.n); ok {
					s.cols[name] = ec
				}
			}
		}
	}
	for _, s := range all {
		s.del = delRange(del, s.base, s.base+s.n)
		if s.sealed {
			s.zoned = s.n
		}
	}
	t.segs, t.tail, t.nrows = segs, tail, nrows
}

// joinedLocked returns a column's rows as one plain array: the tail's own
// chunk when the table has no sealed segment, otherwise a fresh
// concatenation of every segment's chunk, encoded ones decoded. Caller
// holds t.mu.
func (t *Table) joinedLocked(name string) plainChunk {
	if len(t.segs) == 0 {
		return t.tail.cols[name].(plainChunk)
	}
	col := newChunk(t.colTypes[name], t.colDicts[name], t.nrows).(plainChunk)
	for s := range t.segments() {
		col.appendRange(DecodeChunk(s.cols[name]), 0, s.n)
	}
	return col
}

// deletedLocked returns the deletion bits of every segment as one bitmap
// over global rows, or nil if no row is deleted. Caller holds t.mu.
func (t *Table) deletedLocked() *Bitmap {
	var del *Bitmap
	for s := range t.segments() {
		if s.del == nil || s.del.Count() == 0 {
			continue
		}
		if del == nil {
			del = NewBitmap(t.nrows)
		}
		for i := s.del.NextSet(0); i >= 0 && i < s.n; i = s.del.NextSet(i + 1) {
			del.Set(s.base + i)
		}
	}
	return del
}

// delRange returns rows [lo, hi) of a global deletion bitmap as a segment's
// own, or nil if none of them is deleted.
func delRange(del *Bitmap, lo, hi int) *Bitmap {
	if del == nil || !del.AnySetInRange(lo, hi-1) {
		return nil
	}
	out := NewBitmap(hi - lo)
	for i := del.NextSet(lo); i >= 0 && i < hi; i = del.NextSet(i + 1) {
		out.Set(i - lo)
	}
	return out
}

// installSegmentsLocked installs loaded per-column chunks as the table's
// segment list, preserving on-disk encodings for sealed chunks; the last
// count is the tail, whose chunks the loader has checked are plain. del,
// when non-nil, is a global deletion bitmap split per segment, each part
// sized to its segment's rows (writableDelLocked grows it on the next
// write). Loading any encoded chunk turns sealed encodings on so later
// seals stay consistent. Zone maps are not stored: a sealed segment's are
// computed here, before it is first shared, and the tail's when first
// read. Caller holds t.mu.
func (t *Table) installSegmentsLocked(chunks map[string][]Column, counts []int, del *Bitmap) {
	t.segs = nil
	at := 0
	for si, rows := range counts {
		s := t.newSegment(0)
		s.base, s.n, s.cap, s.sealed = at, rows, t.segTarget, si < len(counts)-1
		for _, name := range t.names {
			c := chunks[name][si]
			if ChunkEncoding(c) != EncPlain {
				t.encodeSealed = true
			}
			s.cols[name] = c
		}
		s.del = delRange(del, at, at+rows)
		if s.sealed {
			s.coverZonesLocked()
			t.segs = append(t.segs, s)
		} else {
			t.tail = s
		}
		at += rows
	}
}

// segments iterates the sealed segments in row order, then the tail.
func (t *Table) segments() iter.Seq[*Segment] {
	return func(yield func(*Segment) bool) {
		for _, s := range t.segs {
			if !yield(s) {
				return
			}
		}
		yield(t.tail)
	}
}

// locateLocked maps a global row index in [0, NumRows) to its segment, the
// segment's index in segs (len(segs) for the tail) and the local index,
// without allocating. Sealed segments hold exactly segTarget
// rows (sealing happens only on overflow, and rebuilds re-chunk uniformly),
// so the segment is a division away; a loaded image may carry a non-uniform
// manifest, for which the bases are binary-searched.
func (t *Table) locateLocked(i int) (*Segment, int, int) {
	if i >= t.tail.base {
		return t.tail, len(t.segs), i - t.tail.base
	}
	if si := i / t.segTarget; si < len(t.segs) {
		if s := t.segs[si]; i >= s.base && i < s.base+s.n {
			return s, si, i - s.base
		}
	}
	lo, hi := 0, len(t.segs)-1
	for lo < hi {
		if mid := (lo + hi + 1) / 2; t.segs[mid].base <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return t.segs[lo], lo, i - t.segs[lo].base
}

// frozenLocked returns the tail's pinned copy: chunk headers capped at the
// current row count (later appends, even reallocating ones, stay
// invisible), the zone maps brought up to date, and the current deletion
// bitmap. The copy is isolated from in-place writers only while the tail is
// pinned (Snapshot). The tail of a frozen table is such a copy already.
func (s *Segment) frozenLocked() *Segment {
	if s.frozen {
		return s
	}
	s.coverZonesLocked()
	f := &Segment{
		id: s.id, base: s.base, n: s.n, cap: s.n,
		cols:  make(map[string]Column, len(s.cols)),
		zones: maps.Clone(s.zones), zoned: s.n,
		del: s.del, frozen: true,
	}
	for name, c := range s.cols {
		f.cols[name] = c.(plainChunk).capped() // the tail's chunks are plain
	}
	return f
}

// view is the exported form of a sealed segment or of a tail's frozen copy.
func (s *Segment) view() SegView {
	return SegView{ID: s.id, Base: s.base, N: s.n, Del: s.del, Cols: s.cols, Zones: s.zones, Sealed: s.sealed}
}

// SegViews returns a stable view of the table's current segments, sealed
// ones first and the tail last. The views are captured under the table
// mutex but are NOT pinned: use Snapshot for isolation from in-place
// writers.
func (t *Table) SegViews() []SegView {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SegView, 0, len(t.segs)+1)
	for _, s := range t.segs {
		out = append(out, s.view())
	}
	return append(out, t.tail.frozenLocked().view())
}

// ColumnType returns the declared physical type of a column. ok is false
// for unknown columns.
func (t *Table) ColumnType(name string) (Type, bool) {
	typ, ok := t.colTypes[name]
	return typ, ok
}

// ColumnProto returns a zero-length column of the named column's concrete
// type (carrying the shared dictionary for TDict). Planners use it to
// type-check and to evaluate dictionary predicates against a root table,
// whose per-segment chunks are bound later; it holds no data.
func (t *Table) ColumnProto(name string) Column {
	typ, ok := t.colTypes[name]
	if !ok {
		return nil
	}
	return newChunk(typ, t.colDicts[name], 0)
}

// rewriteLocked returns segs[si] ready for a write to its rows: the tail
// (si == len(segs)) as it is, a sealed segment through the one write gate,
// which puts a shallow copy under a new id in its place, with fresh maps
// when chunks are written. Unpinned, the copy's plain chunks and bitmap are
// written in place; while a snapshot shares them and the segment list, the
// list is cloned before the swap and the copy marks its chunks and bitmap
// shared, so a write clones them first. Caller holds t.mu.
func (t *Table) rewriteLocked(si int, chunks bool) *Segment {
	if si == len(t.segs) {
		return t.tail
	}
	c := *t.segs[si]
	c.id, c.shared, c.delShared = t.nextSegID, nil, false
	t.nextSegID++
	if chunks {
		c.cols, c.zones = maps.Clone(c.cols), maps.Clone(c.zones)
	}
	if t.pins > 0 {
		c.shareLocked()
		t.segs = slices.Clone(t.segs)
	}
	t.segs[si] = &c
	return &c
}

// shareLocked marks every chunk and the bitmap of s as pinned by a
// snapshot, so the next in-place write to one clones it first.
func (s *Segment) shareLocked() {
	if s.shared == nil {
		s.shared = make(map[string]bool, len(s.cols))
	}
	for name := range s.cols {
		s.shared[name] = true
	}
	s.delShared = s.del != nil
}

// writableLocked returns the chunk of column col ready for an in-place
// write. An encoded chunk, and a chunk a snapshot pins, is cloned first
// (copy-on-write) and the clone replaces it.
func (s *Segment) writableLocked(col string) Column {
	c := s.cols[col]
	if _, plain := c.(plainChunk); !plain || s.shared[col] {
		c = cloneChunk(c, s.cap)
		s.cols[col] = c
		delete(s.shared, col)
	}
	return c
}

// writableDelLocked returns the deletion bitmap ready for an in-place
// write: created on first use, cloned first when a snapshot pins it, and
// sized to the segment's capacity — or, for a tail without one, grown to
// its current row count.
func (s *Segment) writableDelLocked() *Bitmap {
	size := max(s.cap, s.n)
	switch {
	case s.del == nil:
		s.del = NewBitmap(size)
	case s.delShared:
		s.del = s.del.Clone()
		s.delShared = false
	}
	s.del.Grow(size)
	return s.del
}

// cloneChunk deep-copies a chunk preserving row capacity, so the tail keeps
// absorbing in-place appends after a copy-on-write. Encoded chunks decode
// to a plain deep copy: the clone exists to be written, and encoded
// representations are sealed-only.
func cloneChunk(c Column, capacity int) Column {
	return DecodeChunk(c).(plainChunk).grow(capacity)
}
