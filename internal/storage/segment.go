package storage

import (
	"fmt"
	"iter"
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
//   - Cheap snapshots: a snapshot is a pinned copy of the segment list
//     (O(#segments) slice/map headers), never a column copy. Sealed segments
//     are immutable, and a snapshot's tail headers are capped at its row
//     count, so appends — in place or into a reallocated array — never
//     show through a pinned reader.
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
	case *Int32Col:
		for _, v := range c.V[lo:hi] {
			z.widenInt(int64(v))
		}
	case *Int64Col:
		for _, v := range c.V[lo:hi] {
			z.widenInt(v)
		}
	case *Float64Col:
		for _, v := range c.V[lo:hi] {
			z.widenFloat(v)
		}
	case *DictCol:
		for _, v := range c.Codes[lo:hi] {
			z.widenInt(int64(v))
		}
	case *RLECol:
		// The zone of rows [lo, hi) is the zone of the runs covering them.
		if hi > lo {
			return z.cover(c.Vals, FindRun(c.End, lo), FindRun(c.End, hi-1)+1)
		}
	case *FoRCol:
		for i := lo; i < hi; i++ {
			z.widenInt(c.At(i))
		}
	default:
		return false
	}
	return true
}

// zoneOfChunk computes an exact zone over the first n elements of a chunk.
// String columns are not summarized (ok=false return).
func zoneOfChunk(c Column, n int) (Zone, bool) {
	z := Zone{Typ: c.Type()}
	ok := z.cover(c, 0, n)
	return z, ok
}

// Segment is one horizontal chunk of a table: a per-column array family, a
// local deletion bitmap, and per-column zone maps. Sealed segments are
// immutable: writers that must change a sealed row clone the affected chunk
// first (copy-on-write) and bump the epoch, so readers and cached
// per-segment plan bindings never observe in-place mutation. All fields are
// guarded by the owning table's mutex.
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

	del       *Bitmap
	delShared bool // deletion bitmap pinned by a live snapshot

	// delGen counts changes to the deletion bitmap. Deletes never bump the
	// epoch (bindings ignore the deletion bitmap, so they survive), and
	// they may mutate del in place when no snapshot pins it — so any cache
	// keyed by the segment's visible row set (per-segment aggregate
	// partials) must include delGen in its key alongside the epoch.
	delGen uint64

	shared map[string]bool // chunks pinned by live snapshots

	// epoch counts chunk replacements (copy-on-write and consolidation
	// rewrites). Plan layers cache per-segment bindings keyed by (ID,
	// Epoch): an unchanged epoch guarantees identical arrays.
	epoch uint64

	// live is set on the pinned copies a frozen table (Snapshot.AsTable) is
	// made of, and names the segment of the live table the copy was taken
	// from: that one is the identity views and caches key by.
	live *Segment
}

// SegView is a stable read view of one segment: the visible row count, the
// deletion bitmap, the chunk headers, and the zone maps, captured under the
// table mutex.
type SegView struct {
	// Seg identifies the live table's segment behind the view.
	Seg *Segment
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
	// Epoch is the segment's chunk-replacement counter at capture time.
	Epoch uint64
	// DelGen is the segment's deletion counter at capture time; together
	// with Epoch it identifies the segment's visible row set.
	DelGen uint64
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
		return &Int32Col{V: make([]int32, 0, capacity)}
	case TInt64:
		return &Int64Col{V: make([]int64, 0, capacity)}
	case TFloat64:
		return &Float64Col{V: make([]float64, 0, capacity)}
	case TString:
		return &StrCol{V: make([]string, 0, capacity)}
	case TDict:
		return &DictCol{Codes: make([]int32, 0, capacity), Dict: dict}
	default:
		return nil
	}
}

// appendRows appends rows [lo, hi) of plain chunk src to dst, a plain chunk
// of the same type.
func appendRows(dst, src Column, lo, hi int) {
	switch c := src.(type) {
	case *Int32Col:
		d := dst.(*Int32Col)
		d.V = append(d.V, c.V[lo:hi]...)
	case *Int64Col:
		d := dst.(*Int64Col)
		d.V = append(d.V, c.V[lo:hi]...)
	case *Float64Col:
		d := dst.(*Float64Col)
		d.V = append(d.V, c.V[lo:hi]...)
	case *StrCol:
		d := dst.(*StrCol)
		d.V = append(d.V, c.V[lo:hi]...)
	case *DictCol:
		d := dst.(*DictCol)
		d.Codes = append(d.Codes, c.Codes[lo:hi]...)
	}
}

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
	flat, del := t.flattenLocked()
	t.segTarget = target
	t.rebuildSegmentsLocked(flat, del)
	t.schemaVersion++
	t.version++
	return nil
}

// flattenLocked returns the table's rows as one plain array per column plus
// a global deletion bitmap (nil if no deletions). A table with no sealed
// segment already is that — the tail's own chunks are returned, not copies;
// otherwise the chunks are concatenated. Caller holds t.mu.
func (t *Table) flattenLocked() (map[string]Column, *Bitmap) {
	if len(t.segs) == 0 {
		return t.tail.cols, t.tail.del
	}
	out := make(map[string]Column, len(t.names))
	for _, name := range t.names {
		col := newChunk(t.colTypes[name], t.colDicts[name], t.nrows)
		for s := range t.segments() {
			appendRows(col, DecodeChunk(s.cols[name]), 0, s.n)
		}
		out[name] = col
	}
	var del *Bitmap
	for s := range t.segments() {
		if s.del == nil || s.del.Count() == 0 {
			continue
		}
		if del == nil {
			del = NewBitmap(t.nrows)
		}
		for i := 0; i < s.n; i++ {
			if s.del.Get(i) {
				del.Set(s.base + i)
			}
		}
	}
	return out, del
}

// rebuildSegmentsLocked re-chunks flat column arrays (and their global
// deletion bitmap, nil for none) into sealed segments of exactly segTarget
// rows plus a tail. Rows that all fit the tail — always, without a sealing
// threshold — are not copied: the tail adopts the flat arrays. Caller holds
// t.mu.
func (t *Table) rebuildSegmentsLocked(flat map[string]Column, del *Bitmap) {
	nrows := t.nrows
	t.segs = nil
	fill := func(s *Segment, lo, hi int) {
		for _, name := range t.names {
			appendRows(s.cols[name], flat[name], lo, hi)
		}
		s.base, s.n = lo, hi-lo
		if del != nil {
			for i := lo; i < hi; i++ {
				if del.Get(i) {
					s.writableDelLocked().Set(i - lo)
				}
			}
		}
	}
	at := 0
	for ; t.segTarget > 0 && nrows-at > t.segTarget; at += t.segTarget {
		s := t.newSegment(t.segTarget)
		fill(s, at, at+t.segTarget)
		t.sealLocked(s)
	}
	t.tail = t.newSegment(t.segTarget)
	if at > 0 {
		fill(t.tail, at, nrows)
		return
	}
	t.tail.n = nrows
	for _, name := range t.names {
		t.tail.cols[name] = flat[name]
	}
	if del != nil {
		t.tail.del = del
		t.tail.writableDelLocked()
	}
}

// installSegmentsLocked installs loaded per-column chunks as the table's
// segment list, preserving on-disk encodings for sealed chunks; the last
// count is the tail, whose chunks the loader has checked are plain. del,
// when non-nil, is a global deletion bitmap split per segment, each part
// sized to its segment's rows (writableDelLocked grows it on the next
// write). Loading any encoded chunk turns sealed encodings on so later
// seals stay consistent. Zone maps are not stored: each segment's are
// computed when first read. Caller holds t.mu.
func (t *Table) installSegmentsLocked(chunks map[string][]Column, counts []int, del *Bitmap) {
	t.segs = nil
	at := 0
	for si, rows := range counts {
		s := &Segment{
			id:     t.nextSegID,
			base:   at,
			n:      rows,
			cap:    t.segTarget,
			sealed: si < len(counts)-1,
			cols:   make(map[string]Column, len(t.names)),
			zones:  make(map[string]Zone, len(t.names)),
		}
		t.nextSegID++
		for _, name := range t.names {
			c := chunks[name][si]
			if ChunkEncoding(c) != EncPlain {
				t.encodeSealed = true
			}
			s.cols[name] = c
		}
		if del != nil {
			for i := 0; i < rows; i++ {
				if del.Get(at + i) {
					if s.del == nil {
						s.del = NewBitmap(rows)
					}
					s.del.Set(i)
				}
			}
		}
		if s.sealed {
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

// locateLocked maps a global row index in [0, NumRows) to its segment and
// local index without allocating. Sealed segments hold exactly segTarget
// rows (sealing happens only on overflow, and rebuilds re-chunk uniformly),
// so the segment is a division away; a loaded image may carry a non-uniform
// manifest, for which the bases are binary-searched.
func (t *Table) locateLocked(i int) (*Segment, int) {
	if i >= t.tail.base {
		return t.tail, i - t.tail.base
	}
	if si := i / t.segTarget; si < len(t.segs) {
		if s := t.segs[si]; i >= s.base && i < s.base+s.n {
			return s, i - s.base
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
	return t.segs[lo], i - t.segs[lo].base
}

// frozenLocked returns an immutable copy of the segment's readable state:
// chunk headers capped at the current row count (later appends, even
// reallocating ones, stay invisible), the zone maps brought up to date, and
// the current deletion bitmap. The copy is isolated from in-place writers
// only while the original is pinned (pinLocked). A segment of a frozen
// table is such a copy already.
func (s *Segment) frozenLocked() *Segment {
	if s.live != nil {
		return s
	}
	s.coverZonesLocked()
	f := &Segment{
		id: s.id, base: s.base, n: s.n, cap: s.n, sealed: s.sealed,
		cols:  make(map[string]Column, len(s.cols)),
		zones: make(map[string]Zone, len(s.zones)), zoned: s.n,
		del: s.del, delGen: s.delGen, epoch: s.epoch,
		live: s,
	}
	for name, c := range s.cols {
		f.cols[name] = shallowHeaderCopy(c)
	}
	for name, z := range s.zones {
		f.zones[name] = z
	}
	return f
}

// pinLocked marks every chunk and the deletion bitmap held by a snapshot,
// so the next in-place write clones first.
func (s *Segment) pinLocked() {
	if s.shared == nil {
		s.shared = make(map[string]bool, len(s.cols))
	}
	for name := range s.cols {
		s.shared[name] = true
	}
	s.delShared = s.del != nil
}

// view is the exported form of a frozen copy.
func (f *Segment) view() SegView {
	return SegView{
		Seg: f.live, Base: f.base, N: f.n, Del: f.del, Cols: f.cols, Zones: f.zones,
		Epoch: f.epoch, DelGen: f.delGen, Sealed: f.sealed,
	}
}

// SegViews returns a stable view of the table's current segments, sealed
// ones first and the tail last. The views are captured under the table
// mutex but are NOT pinned: use Snapshot for isolation from in-place
// writers.
func (t *Table) SegViews() []SegView {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.segViewsLocked()
}

func (t *Table) segViewsLocked() []SegView {
	out := make([]SegView, 0, len(t.segs)+1)
	for s := range t.segments() {
		out = append(out, s.frozenLocked().view())
	}
	return out
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

// writableLocked returns the chunk of column col ready for an in-place
// write. Sealed chunks are never written in place, and neither are chunks a
// snapshot pins: those are cloned first (copy-on-write), the clone replaces
// the chunk, and the epoch is bumped so cached per-segment bindings rebind.
func (s *Segment) writableLocked(col string) Column {
	c := s.cols[col]
	if s.sealed || s.shared[col] {
		c = cloneChunk(c, s.cap)
		s.cols[col] = c
		if s.shared != nil {
			s.shared[col] = false
		}
		s.epoch++
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
	c = DecodeChunk(c)
	var dict *Dict
	if dc, ok := c.(*DictCol); ok {
		dict = dc.Dict
	}
	out := newChunk(c.Type(), dict, max(capacity, c.Len()))
	appendRows(out, c, 0, c.Len())
	return out
}
