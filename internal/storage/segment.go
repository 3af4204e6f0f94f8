package storage

import "fmt"

// This file implements segmented columnar storage for fact tables.
//
// A segmented table stores its rows as a list of immutable *sealed* segments
// plus one mutable *tail* segment. Each segment owns a chunk of every column,
// a local deletion bitmap, and per-column zone maps (min/max summaries) that
// let scans skip whole segments whose value range cannot match a predicate.
//
// The layout buys three properties the flat representation cannot provide:
//
//   - Cheap snapshots: a snapshot is a pinned copy of the segment list
//     (O(#segments) slice/map headers), never a column copy. Sealed segments
//     are immutable, and the tail's arrays are preallocated at full target
//     capacity, so appends fill elements in place and never reallocate out
//     from under a pinned reader.
//   - Append-stable plans: compiled plans bind column arrays per segment.
//     Appends create rows only in the tail (and seal new segments), leaving
//     every previously bound array untouched, so live ingest no longer
//     invalidates compiled plans (see SchemaVersion vs DataVersion).
//   - Data skipping: per-segment zone maps over numeric, dictionary-code,
//     and AIR foreign-key columns let the engine prune segments per
//     predicate before any row work.
//
// Dimension tables stay flat: AIR chain lookups (fk[x] at arbitrary
// positions) need flat arrays to remain O(1) without per-hop segment
// arithmetic. Only root (fact) tables are segmented, via SetSegmentTarget.

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

// zoneable reports whether columns of type t get zone maps.
func zoneable(t Type) bool { return t != TString }

// zoneOfChunk computes an exact zone over the first n elements of a chunk.
// String columns are not summarized (ok=false return).
func zoneOfChunk(c Column, n int) (Zone, bool) {
	z := Zone{Typ: c.Type()}
	switch c := c.(type) {
	case *Int32Col:
		for _, v := range c.V[:n] {
			z.widenInt(int64(v))
		}
	case *Int64Col:
		for _, v := range c.V[:n] {
			z.widenInt(v)
		}
	case *Float64Col:
		for _, v := range c.V[:n] {
			z.widenFloat(v)
		}
	case *DictCol:
		for _, v := range c.Codes[:n] {
			z.widenInt(int64(v))
		}
	case *RLEInt32Col:
		zoneOfRuns(&z, n, c.End, func(ri int) int64 { return int64(c.V[ri]) })
	case *RLEInt64Col:
		zoneOfRuns(&z, n, c.End, func(ri int) int64 { return c.V[ri] })
	case *RLEDictCol:
		zoneOfRuns(&z, n, c.End, func(ri int) int64 { return int64(c.V[ri]) })
	case *FoRInt32Col:
		for i := 0; i < n && i < c.N; i++ {
			z.widenInt(int64(c.At(i)))
		}
	case *FoRInt64Col:
		for i := 0; i < n && i < c.N; i++ {
			z.widenInt(c.At(i))
		}
	default:
		return Zone{}, false
	}
	return z, true
}

// zoneOfRuns widens z over the run values of an RLE chunk that cover the
// first n rows.
func zoneOfRuns(z *Zone, n int, end []int32, val func(ri int) int64) {
	prev := int32(0)
	for ri := range end {
		if int(prev) >= n {
			break
		}
		z.widenInt(val(ri))
		prev = end[ri]
	}
}

// Segment is one horizontal chunk of a segmented table: a per-column array
// family of at most cap rows, a local deletion bitmap, and per-column zone
// maps. Sealed segments are immutable: writers that must change a sealed
// row clone the affected chunk first (copy-on-write) and bump the epoch, so
// readers and cached per-segment plan bindings never observe in-place
// mutation. All fields are guarded by the owning table's mutex.
type Segment struct {
	id     uint64
	base   int // global row index of the segment's first row
	n      int // rows currently present
	cap    int // row capacity (the table's segment target)
	sealed bool

	cols  map[string]Column
	zones map[string]Zone

	del       *Bitmap
	delShared bool // deletion bitmap pinned by a live snapshot

	// delGen counts deletions applied to the segment. Deletes never bump
	// the epoch (bindings ignore the deletion bitmap, so they survive),
	// and they may mutate del in place when no snapshot pins it — so any
	// cache keyed by the segment's visible row set (per-segment aggregate
	// partials) must include delGen in its key alongside the epoch.
	delGen uint64

	shared map[string]bool // chunks pinned by live snapshots

	// epoch counts chunk replacements (copy-on-write and consolidation
	// rewrites). Plan layers cache per-segment bindings keyed by (ID,
	// Epoch): an unchanged epoch guarantees identical arrays.
	epoch uint64
}

// ID returns the segment's stable identity within its table.
func (s *Segment) ID() uint64 { return s.id }

// Len returns the number of rows currently in the segment.
func (s *Segment) Len() int { return s.n }

// Base returns the global row index of the segment's first row.
func (s *Segment) Base() int { return s.base }

// Sealed reports whether the segment is immutable (no further appends).
func (s *Segment) Sealed() bool { return s.sealed }

// Epoch returns the segment's chunk-replacement counter.
func (s *Segment) Epoch() uint64 { return s.epoch }

// DelGen returns the segment's deletion counter.
func (s *Segment) DelGen() uint64 { return s.delGen }

// SegView is a stable read view of one segment: the visible row count, the
// deletion bitmap, the chunk headers, and the zone maps, captured under the
// table mutex. For flat (unsegmented) tables a single pseudo-SegView covers
// the whole table with Seg == nil and no zones.
type SegView struct {
	// Seg identifies the underlying segment (nil for the flat pseudo-view).
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
	// visible rows (tail zones may cover more — conservative). Nil for
	// flat pseudo-views.
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
// row capacity, preallocated so appends never reallocate (which is what
// keeps tail arrays stable under pinned snapshots).
func (t *Table) newSegment(capacity int) *Segment {
	s := &Segment{
		id:    t.nextSegID,
		cap:   capacity,
		cols:  make(map[string]Column, len(t.names)),
		zones: make(map[string]Zone, len(t.names)),
	}
	t.nextSegID++
	for _, name := range t.names {
		switch t.colTypes[name] {
		case TInt32:
			s.cols[name] = &Int32Col{V: make([]int32, 0, capacity)}
		case TInt64:
			s.cols[name] = &Int64Col{V: make([]int64, 0, capacity)}
		case TFloat64:
			s.cols[name] = &Float64Col{V: make([]float64, 0, capacity)}
		case TString:
			s.cols[name] = &StrCol{V: make([]string, 0, capacity)}
		case TDict:
			s.cols[name] = &DictCol{Codes: make([]int32, 0, capacity), Dict: t.colDicts[name]}
		}
	}
	return s
}

// sealTailLocked recomputes exact zones for the tail, marks it sealed, appends it
// to the sealed list, and installs a fresh tail. Caller holds t.mu.
func (t *Table) sealTailLocked() {
	tail := t.tail
	for name, c := range tail.cols {
		if z, ok := zoneOfChunk(c, tail.n); ok {
			tail.zones[name] = z
		}
	}
	tail.sealed = true
	t.encodeSegmentLocked(tail)
	t.segs = append(t.segs, tail)
	nt := t.newSegment(t.segTarget)
	nt.base = tail.base + tail.n
	t.tail = nt
}

// Segmented reports whether the table stores rows as sealed segments plus a
// mutable tail (true after SetSegmentTarget) instead of flat columns.
func (t *Table) Segmented() bool { return t.segTarget > 0 }

// SegmentTarget returns the sealing threshold in rows (0 when flat).
func (t *Table) SegmentTarget() int { return t.segTarget }

// SegmentCounts returns the number of sealed segments and the total number
// of segments (sealed + tail). A flat table reports (0, 1): the whole table
// behaves as one mutable pseudo-segment.
func (t *Table) SegmentCounts() (sealed, total int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.Segmented() {
		return 0, 1
	}
	return len(t.segs), len(t.segs) + 1
}

// SetSegmentTarget converts the table to segmented storage with the given
// sealing threshold (rows per segment), re-chunking existing rows. Global
// row indexes — the primary keys — are preserved, so foreign keys pointing
// at this table stay valid. The conversion is a physical layout change:
// it bumps SchemaVersion (invalidating compiled plans once) and fails while
// snapshots pin the table. Re-targeting an already segmented table rebuilds
// its segments at the new threshold.
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
	t.segs = nil
	t.rebuildSegmentsLocked(flat, del)

	// Flat-mode state is no longer authoritative.
	t.cols = make(map[string]Column)
	t.del = nil
	t.free = t.free[:0]
	t.shared = nil
	t.schemaVersion++
	t.version++
	return nil
}

// flattenLocked returns the table's rows as flat per-column arrays plus a
// global deletion bitmap (nil if no deletions). For flat tables it returns
// the live columns without copying; for segmented tables it concatenates
// chunks. Caller holds t.mu.
func (t *Table) flattenLocked() (map[string]Column, *Bitmap) {
	if !t.Segmented() {
		return t.cols, t.del
	}
	out := make(map[string]Column, len(t.names))
	for _, name := range t.names {
		switch t.colTypes[name] {
		case TInt32:
			v := make([]int32, 0, t.nrows)
			for _, s := range t.allSegsLocked() {
				v = append(v, int32ChunkValues(s.cols[name], s.n)...)
			}
			out[name] = &Int32Col{V: v}
		case TInt64:
			v := make([]int64, 0, t.nrows)
			for _, s := range t.allSegsLocked() {
				v = append(v, int64ChunkValues(s.cols[name], s.n)...)
			}
			out[name] = &Int64Col{V: v}
		case TFloat64:
			v := make([]float64, 0, t.nrows)
			for _, s := range t.allSegsLocked() {
				v = append(v, s.cols[name].(*Float64Col).V[:s.n]...)
			}
			out[name] = &Float64Col{V: v}
		case TString:
			v := make([]string, 0, t.nrows)
			for _, s := range t.allSegsLocked() {
				v = append(v, s.cols[name].(*StrCol).V[:s.n]...)
			}
			out[name] = &StrCol{V: v}
		case TDict:
			v := make([]int32, 0, t.nrows)
			for _, s := range t.allSegsLocked() {
				v = append(v, dictChunkCodes(s.cols[name], s.n)...)
			}
			out[name] = &DictCol{Codes: v, Dict: t.colDicts[name]}
		}
	}
	var del *Bitmap
	for _, s := range t.allSegsLocked() {
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

// rebuildSegmentsLocked re-chunks flat column arrays into sealed segments
// of exactly segTarget rows plus a tail. Caller holds t.mu; t.segTarget
// must be set.
//
//astore:chunkwrite
func (t *Table) rebuildSegmentsLocked(flat map[string]Column, del *Bitmap) {
	nrows := t.nrows
	t.segs = t.segs[:0]
	at := 0
	appendChunk := func(s *Segment, lo, hi int) {
		for _, name := range t.names {
			switch c := flat[name].(type) {
			case *Int32Col:
				dst := s.cols[name].(*Int32Col)
				dst.V = append(dst.V, c.V[lo:hi]...)
			case *Int64Col:
				dst := s.cols[name].(*Int64Col)
				dst.V = append(dst.V, c.V[lo:hi]...)
			case *Float64Col:
				dst := s.cols[name].(*Float64Col)
				dst.V = append(dst.V, c.V[lo:hi]...)
			case *StrCol:
				dst := s.cols[name].(*StrCol)
				dst.V = append(dst.V, c.V[lo:hi]...)
			case *DictCol:
				dst := s.cols[name].(*DictCol)
				dst.Codes = append(dst.Codes, c.Codes[lo:hi]...)
			}
		}
		s.n = hi - lo
		if del != nil {
			for i := lo; i < hi; i++ {
				if del.Get(i) {
					if s.del == nil {
						s.del = NewBitmap(s.cap)
					}
					s.del.Set(i - lo)
				}
			}
		}
	}
	for ; nrows-at > t.segTarget; at += t.segTarget {
		s := t.newSegment(t.segTarget)
		s.base = at
		appendChunk(s, at, at+t.segTarget)
		for name, c := range s.cols {
			if z, ok := zoneOfChunk(c, s.n); ok {
				s.zones[name] = z
			}
		}
		s.sealed = true
		t.encodeSegmentLocked(s)
		t.segs = append(t.segs, s)
	}
	tail := t.newSegment(t.segTarget)
	tail.base = at
	appendChunk(tail, at, nrows)
	for name, c := range tail.cols {
		if z, ok := zoneOfChunk(c, tail.n); ok {
			tail.zones[name] = z
		}
	}
	t.tail = tail
}

// installSegmentsLocked installs loaded per-column chunks as the table's
// segment list, preserving on-disk encodings for sealed chunks (the last
// count is the tail, whose chunks are decoded and re-allocated at full
// target capacity so appends stay stable under snapshots). del, when
// non-nil, is a global deletion bitmap split per segment. Loading any
// encoded chunk turns sealed encodings on so later seals stay consistent.
// Caller holds t.mu; t.segTarget must be set.
func (t *Table) installSegmentsLocked(chunks map[string][]Column, counts []int, del *Bitmap) {
	t.segs = t.segs[:0]
	at := 0
	for si, rows := range counts {
		sealed := si < len(counts)-1
		s := &Segment{
			id:     t.nextSegID,
			base:   at,
			n:      rows,
			cap:    max(rows, t.segTarget),
			sealed: sealed,
			cols:   make(map[string]Column, len(t.names)),
			zones:  make(map[string]Zone, len(t.names)),
		}
		t.nextSegID++
		for _, name := range t.names {
			c := chunks[name][si]
			if !sealed {
				c = cloneChunk(c, t.segTarget)
			} else if ChunkEncoding(c) != EncPlain {
				t.encodeSealed = true
			}
			s.cols[name] = c
			if z, ok := zoneOfChunk(c, rows); ok {
				s.zones[name] = z
			}
		}
		if del != nil {
			for i := 0; i < rows; i++ {
				if del.Get(at + i) {
					if s.del == nil {
						s.del = NewBitmap(s.cap)
					}
					s.del.Set(i)
				}
			}
		}
		if sealed {
			t.segs = append(t.segs, s)
		} else {
			t.tail = s
		}
		at += rows
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// allSegsLocked returns sealed segments followed by the tail.
func (t *Table) allSegsLocked() []*Segment {
	if t.tail == nil {
		return t.segs
	}
	return append(append(make([]*Segment, 0, len(t.segs)+1), t.segs...), t.tail)
}

// locateLocked maps a global row index to its segment and local index.
// Sealed segments always hold exactly segTarget rows (sealing happens only
// on overflow, and rebuilds re-chunk uniformly), so this is a div/mod with
// a defensive fallback for restored non-uniform layouts.
func (t *Table) locateLocked(i int) (*Segment, int, error) {
	if i < 0 || i >= t.nrows {
		return nil, 0, fmt.Errorf("storage: table %s: row %d out of range", t.Name, i)
	}
	if si := i / t.segTarget; si < len(t.segs) {
		s := t.segs[si]
		if local := i - s.base; local >= 0 && local < s.n {
			return s, local, nil
		}
	}
	for _, s := range t.allSegsLocked() {
		if i >= s.base && i < s.base+s.n {
			return s, i - s.base, nil
		}
	}
	return nil, 0, fmt.Errorf("storage: table %s: row %d not covered by any segment", t.Name, i)
}

// segViewLocked captures a stable view of one segment. Caller holds t.mu.
func segViewLocked(s *Segment) SegView {
	sv := SegView{
		Seg:    s,
		Base:   s.base,
		N:      s.n,
		Del:    s.del,
		Cols:   make(map[string]Column, len(s.cols)),
		Zones:  make(map[string]Zone, len(s.zones)),
		Epoch:  s.epoch,
		DelGen: s.delGen,
		Sealed: s.sealed,
	}
	for name, c := range s.cols {
		sv.Cols[name] = shallowHeaderCopy(c)
	}
	for name, z := range s.zones {
		sv.Zones[name] = z
	}
	return sv
}

// SegViews returns a stable view of the table's current segments: one
// SegView per segment for segmented tables, or a single flat pseudo-view
// covering the whole table. The views are captured under the table mutex
// but are NOT pinned: use Snapshot for isolation from in-place writers.
func (t *Table) SegViews() []SegView {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.segViewsLocked()
}

func (t *Table) segViewsLocked() []SegView {
	if t.viewSegs != nil {
		return t.viewSegs // frozen snapshot table: views already captured
	}
	if !t.Segmented() {
		cols := make(map[string]Column, len(t.names))
		for _, name := range t.names {
			cols[name] = shallowHeaderCopy(t.cols[name])
		}
		return []SegView{{N: t.nrows, Del: t.del, Cols: cols}}
	}
	all := t.allSegsLocked()
	out := make([]SegView, 0, len(all))
	for _, s := range all {
		out = append(out, segViewLocked(s))
	}
	return out
}

// ColumnType returns the declared physical type of a column. It works in
// both flat and segmented modes (segmented tables have no flat column to
// inspect). ok is false for unknown columns.
func (t *Table) ColumnType(name string) (Type, bool) {
	typ, ok := t.colTypes[name]
	return typ, ok
}

// ColumnProto returns a zero-length column of the named column's concrete
// type (carrying the shared dictionary for TDict). Planners use it to
// type-check and to evaluate dictionary predicates for segmented tables,
// whose per-segment chunks are bound later; it holds no data.
func (t *Table) ColumnProto(name string) Column {
	typ, ok := t.colTypes[name]
	if !ok {
		return nil
	}
	switch typ {
	case TInt32:
		return &Int32Col{}
	case TInt64:
		return &Int64Col{}
	case TFloat64:
		return &Float64Col{}
	case TString:
		return &StrCol{}
	case TDict:
		return &DictCol{Dict: t.colDicts[name]}
	default:
		return nil
	}
}

// insertSegmentedLocked appends a tuple to the tail segment, sealing it first on
// overflow. Segmented tables never reuse deleted slots (free-slot reuse
// would mutate sealed segments); holes are reclaimed by Consolidate.
// Caller holds t.mu.
func (t *Table) insertSegmentedLocked(vals map[string]any) (int, error) {
	for _, name := range t.names {
		if err := checkAssignable(t.tail.cols[name], vals[name]); err != nil {
			return -1, fmt.Errorf("storage: table %s: %w", t.Name, err)
		}
	}
	if t.tail.n >= t.segTarget {
		t.sealTailLocked()
	}
	tail := t.tail
	for _, name := range t.names {
		c := tail.cols[name]
		if err := appendValue(c, vals[name]); err != nil {
			return -1, err
		}
		widenZone(tail, name, c, tail.n)
	}
	tail.n++
	row := tail.base + tail.n - 1
	t.nrows++
	if tail.n >= t.segTarget {
		t.sealTailLocked()
	}
	t.version++
	return row, nil
}

// widenZone extends the segment's zone for column name to cover the value
// at local row i.
func widenZone(s *Segment, name string, c Column, i int) {
	if !zoneable(c.Type()) {
		return
	}
	z := s.zones[name]
	z.Typ = c.Type()
	switch c := c.(type) {
	case *Int32Col:
		z.widenInt(int64(c.V[i]))
	case *Int64Col:
		z.widenInt(c.V[i])
	case *Float64Col:
		z.widenFloat(c.V[i])
	case *DictCol:
		z.widenInt(int64(c.Codes[i]))
	}
	s.zones[name] = z
}

// deleteSegmentedLocked marks global row i deleted in its segment's local bitmap.
// Caller holds t.mu.
func (t *Table) deleteSegmentedLocked(i int) error {
	s, local, err := t.locateLocked(i)
	if err != nil {
		return err
	}
	if s.del == nil {
		s.del = NewBitmap(s.cap)
	} else if s.del.Get(local) {
		return fmt.Errorf("storage: table %s: row %d already deleted", t.Name, i)
	}
	if s.delShared {
		s.del = s.del.Clone()
		s.delShared = false
	}
	s.del.Set(local)
	s.delGen++
	t.version++
	return nil
}

// updateSegmentedLocked overwrites column col of global row i. Sealed chunks are
// never written in place: the chunk is cloned (copy-on-write), replaced,
// and the segment's epoch bumped so cached per-segment bindings rebind.
// Tail chunks are cloned only while pinned by a snapshot. Zone maps widen
// to cover the new value (conservative: they may overcover after updates,
// which only costs pruning opportunity, never correctness). Caller holds
// t.mu.
func (t *Table) updateSegmentedLocked(i int, col string, v any) error {
	s, local, err := t.locateLocked(i)
	if err != nil {
		return err
	}
	if s.del != nil && s.del.Get(local) {
		return fmt.Errorf("storage: table %s: update of deleted row %d", t.Name, i)
	}
	c, ok := s.cols[col]
	if !ok {
		return fmt.Errorf("storage: table %s: no column %s", t.Name, col)
	}
	if err := checkAssignable(c, v); err != nil {
		return fmt.Errorf("storage: table %s: %w", t.Name, err)
	}
	if s.sealed || (s.shared != nil && s.shared[col]) {
		c = cloneChunk(c, s.cap)
		s.cols[col] = c
		if s.shared != nil {
			s.shared[col] = false
		}
		s.epoch++
	}
	if err := setValue(c, local, v); err != nil {
		return err
	}
	widenZone(s, col, c, local)
	t.version++
	return nil
}

// cloneChunk deep-copies a chunk preserving row capacity, so the tail keeps
// absorbing in-place appends after a copy-on-write. Encoded chunks decode
// to a plain deep copy: the clone exists to be written, and encoded
// representations are sealed-only.
func cloneChunk(c Column, capacity int) Column {
	if ChunkEncoding(c) != EncPlain {
		c = DecodeChunk(c)
	}
	switch c := c.(type) {
	case *Int32Col:
		v := make([]int32, len(c.V), max(capacity, len(c.V)))
		copy(v, c.V)
		return &Int32Col{V: v}
	case *Int64Col:
		v := make([]int64, len(c.V), max(capacity, len(c.V)))
		copy(v, c.V)
		return &Int64Col{V: v}
	case *Float64Col:
		v := make([]float64, len(c.V), max(capacity, len(c.V)))
		copy(v, c.V)
		return &Float64Col{V: v}
	case *StrCol:
		v := make([]string, len(c.V), max(capacity, len(c.V)))
		copy(v, c.V)
		return &StrCol{V: v}
	case *DictCol:
		v := make([]int32, len(c.Codes), max(capacity, len(c.Codes)))
		copy(v, c.Codes)
		return &DictCol{Codes: v, Dict: c.Dict}
	default:
		panic("storage: unknown column type in cloneChunk")
	}
}
