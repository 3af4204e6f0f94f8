package storage

import (
	"maps"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// This file implements compressed sealed-chunk encodings. Sealed segments
// are immutable, which makes them the one place in the engine where a
// non-positional physical representation is safe: no append, free-slot
// reuse, or in-place update ever touches a sealed chunk (writers go through
// copy-on-write, which decodes back to plain). Two encodings are supported
// beyond plain arrays, one type each, whatever the column type:
//
//   - Run-length (RLECol): consecutive equal values collapse to runs, each
//     a value and the row where it ends. The run values are themselves a
//     plain Int32Col, Int64Col or DictCol (which keeps sharing its
//     dictionary), so the code that reads a plain chunk reads them too.
//     Pays off after consolidate-time attribute reordering, which sorts fact
//     rows by configured key columns and thereby creates the runs.
//   - Frame of reference (FoRCol): int32 or int64 values stored as
//     fixed-width bit-packed deltas from the chunk minimum. Pays off on
//     narrow-domain integers (AIR foreign keys, small measures) regardless
//     of order.
//
// Encoded chunks implement Column so every generic path (flatten,
// consolidation, persistence) keeps working; they are never written:
// encoding is applied only at seal/rebuild time and undone by cloneChunk
// before any write. Every scan reads encoded chunks where they
// lie: it walks an RLE chunk's runs with the one run cursor (or finds a
// single row's run with FindRun), and reads a FoR chunk's fields in place
// through Gather, FilterDelta and At — this file is the one place that
// knows the bit layout. DecodeChunk, the one decoder, expands a chunk to
// plain form for copy-on-write and for the table-wide passes (flattening,
// foreign-key checks).

// Encoding identifies the physical representation of a chunk.
type Encoding uint8

const (
	// EncPlain is a flat array (Int32Col, Int64Col, Float64Col, StrCol,
	// DictCol).
	EncPlain Encoding = 0
	// EncRLE is run-length encoding (RLECol).
	EncRLE Encoding = 1
	// EncFoR is frame-of-reference bit-packing (FoRCol).
	EncFoR Encoding = 2
)

// String returns the encoding's short name.
func (e Encoding) String() string {
	switch e {
	case EncPlain:
		return "plain"
	case EncRLE:
		return "rle"
	case EncFoR:
		return "for"
	default:
		return "unknown"
	}
}

// ChunkEncoding reports the physical encoding of a chunk.
func ChunkEncoding(c Column) Encoding {
	switch c.(type) {
	case *RLECol:
		return EncRLE
	case *FoRCol:
		return EncFoR
	default:
		return EncPlain
	}
}

// FindRun returns the index of the run containing row i, given cumulative
// exclusive run ends: a binary search, for reads at one row. A walk over
// ascending rows uses RunIndex or KeepRuns instead.
func FindRun(end []int32, i int) int {
	return sort.Search(len(end), func(ri int) bool { return end[ri] > int32(i) })
}

// runCursor maps ascending rows of an RLE chunk to the runs that hold them,
// moving forward only. It is the engine's one run cursor: the column-wise
// kernel's run index (RunIndex) and the run-at-a-time filters (KeepRuns)
// walk their selection vectors with it. A cursor is a value private to one
// walk, so the chunk it reads stays safe to share across concurrent scans.
type runCursor struct {
	end []int32
	ri  int32
}

// newRunCursor returns a cursor over the runs ending at end (an RLECol's
// End), placed at the run that holds row first.
func newRunCursor(end []int32, first int32) runCursor {
	return runCursor{end: end, ri: int32(FindRun(end, int(first)))}
}

// run returns the run that holds row r; r must not be less than the row of
// the previous call or the cursor's first row.
func (c *runCursor) run(r int32) int32 {
	end, ri := c.end, c.ri
	for end[ri] <= r {
		ri++
	}
	c.ri = ri
	return ri
}

// RunIndex sets dst[j] to the run that holds row sel[j] of the chunk whose
// runs end at end, for an ascending selection vector sel. It reuses dst's
// storage and returns it resized to len(sel).
func RunIndex(dst, end, sel []int32) []int32 {
	dst = slices.Grow(dst[:0], len(sel))[:len(sel)]
	if len(sel) == 0 {
		return dst
	}
	cur := newRunCursor(end, sel[0])
	for j, r := range sel {
		dst[j] = cur.run(r)
	}
	return dst
}

// KeepRuns writes to dst the rows of the ascending selection vector sel
// whose run, in the chunk whose runs end at end, passes (pass[run]): a
// filter decided once per run. dst must have room for len(sel) rows and may
// alias sel; sel is only read.
func KeepRuns(dst, sel, end []int32, pass []bool) []int32 {
	if len(sel) == 0 {
		return dst[:0]
	}
	out, n := dst[:len(sel)], 0
	cur := newRunCursor(end, sel[0])
	for _, r := range sel {
		out[n] = r
		n += Bit(pass[cur.run(r)])
	}
	return out[:n]
}

// RLECol is a run-length encoded chunk: Vals.At(ri) repeats for local rows
// [End[ri-1], End[ri]).
type RLECol struct {
	End  []int32 // cumulative exclusive run ends; End[len-1] == Len()
	Vals Column  // one plain value per run: *Int32Col, *Int64Col or *DictCol
}

// Len implements Column.
func (c *RLECol) Len() int {
	if len(c.End) == 0 {
		return 0
	}
	return int(c.End[len(c.End)-1])
}

// Type implements Column: the type of the run values.
func (c *RLECol) Type() Type { return c.Vals.Type() }

// Clone implements Column. A dictionary is shared.
func (c *RLECol) Clone() Column {
	return &RLECol{End: append([]int32(nil), c.End...), Vals: c.Vals.Clone()}
}

// FoRCol is a frame-of-reference bit-packed integer chunk: row i stores the
// unsigned delta value-Base in Width bits at bit offset i*Width of Words.
// Width 0 means every row equals Base.
type FoRCol struct {
	Typ   Type // TInt32 or TInt64
	Base  int64
	Width uint8
	N     int
	Words []uint64
}

// Len implements Column.
func (c *FoRCol) Len() int { return c.N }

// Type implements Column.
func (c *FoRCol) Type() Type { return c.Typ }

// At returns the value at local row i, as DecodeChunk would.
func (c *FoRCol) At(i int) int64 {
	v := c.Base + int64(forExtract(c.Words, c.Width, i))
	if c.Typ == TInt32 {
		return int64(int32(v))
	}
	return v
}

// Gather reads the chunk in place at the rows of selection vector sel:
// dst[j] is the value of row sel[j], as At and DecodeChunk read it. It
// reuses dst's storage and returns it resized to len(sel).
func (c *FoRCol) Gather(dst []int64, sel []int32) []int64 {
	dst = slices.Grow(dst[:0], len(sel))[:len(sel)]
	if c.Width == 0 {
		for j := range dst {
			dst[j] = c.Base
		}
	} else {
		w, mask := uint(c.Width), forMask(c.Width)
		for j, r := range sel {
			dst[j] = c.Base + int64(forField(c.Words, w, mask, int(r)))
		}
	}
	if _, _, framed := c.Frame(); c.Typ == TInt32 && !framed {
		for j, v := range dst {
			dst[j] = int64(int32(v))
		}
	}
	return dst
}

// Frame returns the range of values the chunk's fields can express, Base
// to Base+2^Width−1. ok is false when that range leaves the chunk's type —
// as it can for values within 2^Width of the type's maximum — because a
// field could then hold a value that wraps, and the order of the stored
// deltas would not be the order of the values.
func (c *FoRCol) Frame() (lo, hi int64, ok bool) {
	var span uint64
	if c.Width > 0 {
		span = forMask(c.Width)
	}
	low, lim := int64(math.MinInt64), int64(math.MaxInt64)
	if c.Typ == TInt32 {
		low, lim = math.MinInt32, math.MaxInt32
	}
	if c.Base < low || c.Base > lim || span > uint64(lim)-uint64(c.Base) {
		return 0, 0, false
	}
	return c.Base, int64(uint64(c.Base) + span), true
}

// FilterDelta writes to dst the rows of selection vector sel whose stored
// delta (value − Base) lies in [lo, hi], lo <= hi: one field extract and
// one unsigned compare per row, no decode. dst must have room for len(sel)
// rows and may alias sel; sel is only read.
func (c *FoRCol) FilterDelta(dst, sel []int32, lo, hi uint64) []int32 {
	if c.Width == 0 { // every delta is 0
		if lo == 0 {
			return append(dst[:0], sel...)
		}
		return dst[:0]
	}
	out, n := dst[:len(sel)], 0
	w, mask, span := uint(c.Width), forMask(c.Width), hi-lo
	for _, r := range sel {
		out[n] = r
		n += Bit(forField(c.Words, w, mask, int(r))-lo <= span)
	}
	return out[:n]
}

// Clone implements Column.
func (c *FoRCol) Clone() Column {
	return &FoRCol{Typ: c.Typ, Base: c.Base, Width: c.Width, N: c.N, Words: append([]uint64(nil), c.Words...)}
}

// forExtract reads the width-bit field at index i from the packed words.
func forExtract(words []uint64, width uint8, i int) uint64 {
	if width == 0 {
		return 0
	}
	return forField(words, uint(width), forMask(width), i)
}

// forMask has the low width bits set; width is 1 to 64.
func forMask(width uint8) uint64 { return ^uint64(0) >> (64 - width) }

// forField reads the w-bit field at index i (w >= 1, mask = forMask(w))
// without a branch: a field may straddle into the next word, whose bits are
// always or-ed in — beyond the field they fall under the mask, and a shift
// by 64 (off == 0) yields 0. Past the last word, the last word stands in
// for the next (the format has no padding word).
func forField(words []uint64, w uint, mask uint64, i int) uint64 {
	bit := uint(i) * w
	word, off := bit/64, bit%64
	next := min(word+1, uint(len(words)-1))
	return (words[word]>>off | words[next]<<(64-off)) & mask
}

// forValues unpacks a FoR chunk word-wise into a fresh flat array, shifting
// consecutive fields out of each 64-bit word instead of recomputing offsets
// per row (a field may straddle two words).
func forValues[T int32 | int64](c *FoRCol) []T {
	out := make([]T, c.N)
	if c.Width == 0 {
		for i := range out {
			out[i] = T(c.Base)
		}
		return out
	}
	w := uint(c.Width)
	mask := ^uint64(0) >> (64 - w)
	var word, off uint
	for i := range out {
		v := c.Words[word] >> off
		if off+w > 64 {
			v |= c.Words[word+1] << (64 - off)
		}
		out[i] = T(c.Base + int64(v&mask))
		off += w
		if off >= 64 {
			word++
			off -= 64
		}
	}
	return out
}

// forPack bit-packs n width-bit deltas produced by src(i).
func forPack(n int, width uint8, src func(i int) uint64) []uint64 {
	if width == 0 {
		return nil
	}
	w := uint(width)
	words := make([]uint64, (uint(n)*w+63)/64)
	var word, off uint
	for i := 0; i < n; i++ {
		v := src(i)
		words[word] |= v << off
		if off+w > 64 {
			words[word+1] = v >> (64 - off)
		}
		off += w
		if off >= 64 {
			word++
			off -= 64
		}
	}
	return words
}

// encodedBytes estimates a chunk's physical payload size; used both to pick
// the smallest encoding and for compression accounting.
func encodedBytes(c Column, n int) int {
	switch c := c.(type) {
	case *StrCol:
		b := 0
		for _, s := range c.V[:n] {
			b += len(s) + 16
		}
		return b
	case *RLECol:
		return 4*len(c.End) + encodedBytes(c.Vals, len(c.End))
	case *FoRCol:
		return 14 + 8*len(c.Words)
	}
	return c.Type().width() * n
}

// countRuns returns the number of runs of equal consecutive values.
func countRuns[T comparable](v []T) int {
	runs := 0
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			runs++
		}
	}
	return runs
}

// rleRuns builds the cumulative run ends and the one-per-run values of v.
func rleRuns[T comparable](v []T) (end []int32, vals []T) {
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			vals = append(vals, x)
			end = append(end, int32(i))
		}
		end[len(end)-1] = int32(i + 1)
	}
	return end, vals
}

// EncodeChunk returns the smallest beneficial encoded representation of the
// first n rows of a plain chunk, or (nil, false) when the chunk should stay
// plain: floats and strings are never encoded, and integer/dict chunks are
// encoded only when the encoded payload is at most half the plain size (a
// marginal win is not worth the decode). Already-encoded chunks return
// (nil, false).
func EncodeChunk(c Column, n int) (Column, bool) {
	if n == 0 {
		return nil, false
	}
	switch c := c.(type) {
	case *Int32Col:
		return encodeInts(c.V[:n])
	case *Int64Col:
		return encodeInts(c.V[:n])
	case *DictCol:
		codes := c.Codes[:n]
		if 2*8*countRuns(codes) <= 4*n {
			end, vals := rleRuns(codes)
			return &RLECol{End: end, Vals: &DictCol{Codes: vals, Dict: c.Dict}}, true
		}
	}
	return nil, false
}

// encodeInts is EncodeChunk for an int32 or int64 chunk: RLE when its runs
// take no more bytes than the FoR packing, else FoR, and either only at most
// half the plain size.
func encodeInts[T int32 | int64](v []T) (Column, bool) {
	typ := elemType[T]()
	n, size := len(v), typ.width()
	mn, mx := slices.Min(v), slices.Max(v)
	width := uint8(bits.Len64(uint64(int64(mx) - int64(mn))))
	rleBytes := (4 + size) * countRuns(v)
	forBytes := 14 + 8*int((uint(n)*uint(width)+63)/64)
	if rleBytes <= forBytes && 2*rleBytes <= size*n {
		end, vals := rleRuns(v)
		return &RLECol{End: end, Vals: &Vec[T]{V: vals}}, true
	}
	if 2*forBytes <= size*n {
		base := int64(mn)
		return &FoRCol{Typ: typ, Base: base, Width: width, N: n,
			Words: forPack(n, width, func(i int) uint64 { return uint64(int64(v[i]) - base) })}, true
	}
	return nil, false
}

// DecodeChunk returns a plain representation of a chunk: encoded chunks are
// expanded into a fresh flat column, plain chunks are returned unchanged
// (no copy). It is the only decoder.
func DecodeChunk(c Column) Column {
	switch c := c.(type) {
	case *RLECol:
		// Each row reads its run's value: a gather by run index.
		runOf := make([]int32, 0, c.Len())
		for ri, e := range c.End {
			for int32(len(runOf)) < e {
				runOf = append(runOf, int32(ri))
			}
		}
		return gatherColumn(c.Vals, runOf)
	case *FoRCol:
		if c.Typ == TInt32 {
			return &Int32Col{V: forValues[int32](c)}
		}
		return &Int64Col{V: forValues[int64](c)}
	}
	return c
}

// encodeSegmentLocked gives a sealed segment a new chunk map in which plain
// chunks are replaced by encoded ones where beneficial. A sealed chunk sees
// no in-place write, and the map it had is left to whoever shares it.
// Caller holds the table mutex.
func (t *Table) encodeSegmentLocked(s *Segment) {
	if !t.encodeSealed || !s.sealed {
		return
	}
	cols := maps.Clone(s.cols)
	for name, c := range cols {
		if ec, ok := EncodeChunk(c, s.n); ok {
			cols[name] = ec
		}
	}
	s.cols = cols
}

// CompressionStats summarizes the physical effect of sealed-chunk encodings
// on one table.
type CompressionStats struct {
	// LogicalBytes is the size of all chunk payloads decoded to plain.
	LogicalBytes int64
	// PhysicalBytes is the size of the chunk payloads as stored.
	PhysicalBytes int64
	// EncodedChunks and TotalChunks count sealed+tail chunks.
	EncodedChunks, TotalChunks int
}

// Compression reports logical vs physical chunk payload bytes and encoded
// chunk counts; the two sizes differ only where sealed chunks are encoded.
func (t *Table) Compression() CompressionStats {
	return t.Layout().CompressionStats
}

// Layout is one consistent sample of a table's physical state.
type Layout struct {
	// Rows is the physical row count, deleted rows included.
	Rows int
	// Sealed is the number of sealed segments; the tail is one more.
	Sealed int
	// DataVersion and SchemaVersion are the table's mutation counters.
	DataVersion, SchemaVersion uint64
	CompressionStats
}

// Layout samples the table's size, versions and layout in one acquisition
// of the table mutex. It pins nothing, so — unlike a Snapshot taken only to
// read a row count — it never makes a concurrent writer copy-on-write.
func (t *Table) Layout() Layout {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := Layout{Rows: t.nrows, Sealed: len(t.segs), DataVersion: t.version, SchemaVersion: t.schemaVersion}
	for s := range t.segments() {
		for _, c := range s.cols {
			l.TotalChunks++
			l.PhysicalBytes += int64(encodedBytes(c, s.n))
			if ChunkEncoding(c) != EncPlain {
				l.EncodedChunks++
				// Encoded chunks hold integers or dict codes, whose
				// plain width is their type's.
				l.LogicalBytes += int64(c.Type().width() * s.n)
			} else {
				l.LogicalBytes += int64(encodedBytes(c, s.n))
			}
		}
	}
	return l
}
