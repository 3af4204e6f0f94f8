package storage

import (
	"math/bits"
	"sort"
)

// This file implements compressed sealed-chunk encodings. Sealed segments
// are immutable, which makes them the one place in the engine where a
// non-positional physical representation is safe: no append, free-slot
// reuse, or in-place update ever touches a sealed chunk (writers go through
// copy-on-write, which decodes back to plain). Three encodings are
// supported beyond plain arrays:
//
//   - Run-length (RLE): consecutive equal values collapse to (value, end)
//     run pairs. Pays off after consolidate-time attribute reordering,
//     which sorts fact rows by configured key columns and thereby creates
//     the runs. Scan kernels over RLE chunks work run-at-a-time.
//   - Frame of reference (FoR): values are stored as fixed-width
//     bit-packed deltas from the chunk minimum. Pays off on narrow-domain
//     integers (AIR foreign keys, small measures) regardless of order.
//     Decode is word-wise sequential.
//   - Shared-dict codes: dictionary columns RLE-encode their code arrays;
//     the dictionary itself stays shared and untouched (codes are stable).
//
// Encoded chunks implement Column so every generic path (row-wise
// execution, flatten, consolidation) keeps working, but their mutating
// methods panic: encoding is applied only at seal/rebuild time and undone
// by cloneChunk before any write.

// Encoding identifies the physical representation of a chunk.
type Encoding uint8

const (
	// EncPlain is a flat array (Int32Col, Int64Col, Float64Col, StrCol,
	// DictCol).
	EncPlain Encoding = 0
	// EncRLE is run-length encoding (RLEInt32Col, RLEInt64Col, RLEDictCol).
	EncRLE Encoding = 1
	// EncFoR is frame-of-reference bit-packing (FoRInt32Col, FoRInt64Col).
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
	case *RLEInt32Col, *RLEInt64Col, *RLEDictCol:
		return EncRLE
	case *FoRInt32Col, *FoRInt64Col:
		return EncFoR
	default:
		return EncPlain
	}
}

func sealedOnly() {
	panic("storage: encoded chunks are sealed-only (decode via cloneChunk before writing)")
}

// findRun returns the index of the run containing row i, given cumulative
// exclusive run ends.
func findRun(end []int32, i int) int {
	return sort.Search(len(end), func(ri int) bool { return end[ri] > int32(i) })
}

// RLEInt32Col is a run-length encoded int32 chunk: V[ri] repeats for local
// rows [End[ri-1], End[ri]).
type RLEInt32Col struct {
	V   []int32 // run values
	End []int32 // cumulative exclusive run ends; End[len-1] == Len()
}

// Len implements Column.
func (c *RLEInt32Col) Len() int {
	if len(c.End) == 0 {
		return 0
	}
	return int(c.End[len(c.End)-1])
}

// Type implements Column.
func (c *RLEInt32Col) Type() Type { return TInt32 }

// At returns the value at local row i.
func (c *RLEInt32Col) At(i int) int32 { return c.V[findRun(c.End, i)] }

// AppendFrom implements Column; encoded chunks are sealed-only.
func (c *RLEInt32Col) AppendFrom(Column, int) { sealedOnly() }

// Move implements Column; encoded chunks are sealed-only.
func (c *RLEInt32Col) Move(int, int) { sealedOnly() }

// Truncate implements Column; encoded chunks are sealed-only.
func (c *RLEInt32Col) Truncate(int) { sealedOnly() }

// Clone implements Column.
func (c *RLEInt32Col) Clone() Column {
	return &RLEInt32Col{V: append([]int32(nil), c.V...), End: append([]int32(nil), c.End...)}
}

// DecodeInt32 expands the runs into a fresh flat array.
func (c *RLEInt32Col) DecodeInt32() []int32 {
	out := make([]int32, 0, c.Len())
	for ri, v := range c.V {
		for len(out) < int(c.End[ri]) {
			out = append(out, v)
		}
	}
	return out
}

// RLEInt64Col is a run-length encoded int64 chunk.
type RLEInt64Col struct {
	V   []int64
	End []int32
}

// Len implements Column.
func (c *RLEInt64Col) Len() int {
	if len(c.End) == 0 {
		return 0
	}
	return int(c.End[len(c.End)-1])
}

// Type implements Column.
func (c *RLEInt64Col) Type() Type { return TInt64 }

// At returns the value at local row i.
func (c *RLEInt64Col) At(i int) int64 { return c.V[findRun(c.End, i)] }

// AppendFrom implements Column; encoded chunks are sealed-only.
func (c *RLEInt64Col) AppendFrom(Column, int) { sealedOnly() }

// Move implements Column; encoded chunks are sealed-only.
func (c *RLEInt64Col) Move(int, int) { sealedOnly() }

// Truncate implements Column; encoded chunks are sealed-only.
func (c *RLEInt64Col) Truncate(int) { sealedOnly() }

// Clone implements Column.
func (c *RLEInt64Col) Clone() Column {
	return &RLEInt64Col{V: append([]int64(nil), c.V...), End: append([]int32(nil), c.End...)}
}

// DecodeInt64 expands the runs into a fresh flat array.
func (c *RLEInt64Col) DecodeInt64() []int64 {
	out := make([]int64, 0, c.Len())
	for ri, v := range c.V {
		for len(out) < int(c.End[ri]) {
			out = append(out, v)
		}
	}
	return out
}

// RLEDictCol is a run-length encoded dictionary chunk: run values are codes
// into the shared dictionary.
type RLEDictCol struct {
	V    []int32 // run code values
	End  []int32
	Dict *Dict
}

// Len implements Column.
func (c *RLEDictCol) Len() int {
	if len(c.End) == 0 {
		return 0
	}
	return int(c.End[len(c.End)-1])
}

// Type implements Column.
func (c *RLEDictCol) Type() Type { return TDict }

// At returns the code at local row i.
func (c *RLEDictCol) At(i int) int32 { return c.V[findRun(c.End, i)] }

// Value returns the decompressed string at local row i.
func (c *RLEDictCol) Value(i int) string { return c.Dict.Value(c.At(i)) }

// AppendFrom implements Column; encoded chunks are sealed-only.
func (c *RLEDictCol) AppendFrom(Column, int) { sealedOnly() }

// Move implements Column; encoded chunks are sealed-only.
func (c *RLEDictCol) Move(int, int) { sealedOnly() }

// Truncate implements Column; encoded chunks are sealed-only.
func (c *RLEDictCol) Truncate(int) { sealedOnly() }

// Clone implements Column. The dictionary is shared.
func (c *RLEDictCol) Clone() Column {
	return &RLEDictCol{V: append([]int32(nil), c.V...), End: append([]int32(nil), c.End...), Dict: c.Dict}
}

// DecodeCodes expands the runs into a fresh flat code array.
func (c *RLEDictCol) DecodeCodes() []int32 {
	out := make([]int32, 0, c.Len())
	for ri, v := range c.V {
		for len(out) < int(c.End[ri]) {
			out = append(out, v)
		}
	}
	return out
}

// FoRInt32Col is a frame-of-reference bit-packed int32 chunk: row i stores
// the unsigned delta value-Base in Width bits at bit offset i*Width of
// Words. Width 0 means every row equals Base.
type FoRInt32Col struct {
	Base  int64
	Width uint8
	N     int
	Words []uint64
}

// Len implements Column.
func (c *FoRInt32Col) Len() int { return c.N }

// Type implements Column.
func (c *FoRInt32Col) Type() Type { return TInt32 }

// At returns the value at local row i.
func (c *FoRInt32Col) At(i int) int32 {
	return int32(c.Base + int64(forExtract(c.Words, c.Width, i)))
}

// AppendFrom implements Column; encoded chunks are sealed-only.
func (c *FoRInt32Col) AppendFrom(Column, int) { sealedOnly() }

// Move implements Column; encoded chunks are sealed-only.
func (c *FoRInt32Col) Move(int, int) { sealedOnly() }

// Truncate implements Column; encoded chunks are sealed-only.
func (c *FoRInt32Col) Truncate(int) { sealedOnly() }

// Clone implements Column.
func (c *FoRInt32Col) Clone() Column {
	return &FoRInt32Col{Base: c.Base, Width: c.Width, N: c.N, Words: append([]uint64(nil), c.Words...)}
}

// DecodeInt32 unpacks the deltas word-wise into a fresh flat array.
func (c *FoRInt32Col) DecodeInt32() []int32 {
	out := make([]int32, c.N)
	forDecode(c.Words, c.Width, c.N, func(i int, delta uint64) {
		out[i] = int32(c.Base + int64(delta))
	})
	return out
}

// FoRInt64Col is a frame-of-reference bit-packed int64 chunk.
type FoRInt64Col struct {
	Base  int64
	Width uint8
	N     int
	Words []uint64
}

// Len implements Column.
func (c *FoRInt64Col) Len() int { return c.N }

// Type implements Column.
func (c *FoRInt64Col) Type() Type { return TInt64 }

// At returns the value at local row i.
func (c *FoRInt64Col) At(i int) int64 {
	return c.Base + int64(forExtract(c.Words, c.Width, i))
}

// AppendFrom implements Column; encoded chunks are sealed-only.
func (c *FoRInt64Col) AppendFrom(Column, int) { sealedOnly() }

// Move implements Column; encoded chunks are sealed-only.
func (c *FoRInt64Col) Move(int, int) { sealedOnly() }

// Truncate implements Column; encoded chunks are sealed-only.
func (c *FoRInt64Col) Truncate(int) { sealedOnly() }

// Clone implements Column.
func (c *FoRInt64Col) Clone() Column {
	return &FoRInt64Col{Base: c.Base, Width: c.Width, N: c.N, Words: append([]uint64(nil), c.Words...)}
}

// DecodeInt64 unpacks the deltas word-wise into a fresh flat array.
func (c *FoRInt64Col) DecodeInt64() []int64 {
	out := make([]int64, c.N)
	forDecode(c.Words, c.Width, c.N, func(i int, delta uint64) {
		out[i] = c.Base + int64(delta)
	})
	return out
}

// forExtract reads the width-bit field at index i from the packed words.
func forExtract(words []uint64, width uint8, i int) uint64 {
	if width == 0 {
		return 0
	}
	w := uint(width)
	bit := uint(i) * w
	word, off := bit/64, bit%64
	v := words[word] >> off
	if off+w > 64 {
		v |= words[word+1] << (64 - off)
	}
	return v & (^uint64(0) >> (64 - w))
}

// forDecode walks all n fields sequentially, shifting through whole words
// instead of recomputing offsets per row.
func forDecode(words []uint64, width uint8, n int, emit func(i int, delta uint64)) {
	if width == 0 {
		for i := 0; i < n; i++ {
			emit(i, 0)
		}
		return
	}
	w := uint(width)
	mask := ^uint64(0) >> (64 - w)
	var word, off uint
	for i := 0; i < n; i++ {
		v := words[word] >> off
		if off+w > 64 {
			v |= words[word+1] << (64 - off)
		}
		emit(i, v&mask)
		off += w
		if off >= 64 {
			word++
			off -= 64
		}
	}
}

// forPack bit-packs n width-bit deltas produced by src(i).
//
//astore:chunkwrite
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
	case *Int32Col, *DictCol:
		return 4 * n
	case *Int64Col, *Float64Col:
		return 8 * n
	case *StrCol:
		b := 0
		for _, s := range c.V[:n] {
			b += len(s) + 16
		}
		return b
	case *RLEInt32Col:
		return 8 * len(c.V)
	case *RLEInt64Col:
		return 12 * len(c.V)
	case *RLEDictCol:
		return 8 * len(c.V)
	case *FoRInt32Col:
		return 14 + 8*len(c.Words)
	case *FoRInt64Col:
		return 14 + 8*len(c.Words)
	default:
		return 0
	}
}

// countRuns returns the number of equal-value runs over the first n values.
func countRuns(n int, eq func(i, j int) bool) int {
	runs := 0
	for i := 0; i < n; i++ {
		if i == 0 || !eq(i-1, i) {
			runs++
		}
	}
	return runs
}

// rleEncode builds the (value, end) run pairs over the first n values.
//
//astore:chunkwrite
func rleEncodeInt32(v []int32) (vals, end []int32) {
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			vals = append(vals, x)
			end = append(end, int32(i))
		}
		end[len(end)-1] = int32(i + 1)
	}
	return vals, end
}

//astore:chunkwrite
func rleEncodeInt64(v []int64) (vals []int64, end []int32) {
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			vals = append(vals, x)
			end = append(end, int32(i))
		}
		end[len(end)-1] = int32(i + 1)
	}
	return vals, end
}

// EncodeChunk returns the smallest beneficial encoded representation of the
// first n rows of a plain chunk, or (nil, false) when the chunk should stay
// plain: floats and strings are never encoded, and integer/dict chunks are
// encoded only when the encoded payload is at most half the plain size (a
// marginal win is not worth the decode kernels). Already-encoded chunks
// return (nil, false).
func EncodeChunk(c Column, n int) (Column, bool) {
	switch c := c.(type) {
	case *Int32Col:
		if n == 0 {
			return nil, false
		}
		v := c.V[:n]
		runs := countRuns(n, func(i, j int) bool { return v[i] == v[j] })
		mn, mx := v[0], v[0]
		for _, x := range v {
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		width := uint8(bits.Len64(uint64(int64(mx) - int64(mn))))
		rleBytes := 8 * runs
		forBytes := 14 + 8*int((uint(n)*uint(width)+63)/64)
		plain := 4 * n
		if rleBytes <= forBytes && 2*rleBytes <= plain {
			vals, end := rleEncodeInt32(v)
			return &RLEInt32Col{V: vals, End: end}, true
		}
		if 2*forBytes <= plain {
			base := int64(mn)
			return &FoRInt32Col{Base: base, Width: width, N: n,
				Words: forPack(n, width, func(i int) uint64 { return uint64(int64(v[i]) - base) })}, true
		}
	case *Int64Col:
		if n == 0 {
			return nil, false
		}
		v := c.V[:n]
		runs := countRuns(n, func(i, j int) bool { return v[i] == v[j] })
		mn, mx := v[0], v[0]
		for _, x := range v {
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		width := uint8(bits.Len64(uint64(mx - mn)))
		rleBytes := 12 * runs
		forBytes := 14 + 8*int((uint(n)*uint(width)+63)/64)
		plain := 8 * n
		if rleBytes <= forBytes && 2*rleBytes <= plain {
			vals, end := rleEncodeInt64(v)
			return &RLEInt64Col{V: vals, End: end}, true
		}
		if 2*forBytes <= plain {
			return &FoRInt64Col{Base: mn, Width: width, N: n,
				Words: forPack(n, width, func(i int) uint64 { return uint64(v[i] - mn) })}, true
		}
	case *DictCol:
		if n == 0 {
			return nil, false
		}
		codes := c.Codes[:n]
		runs := countRuns(n, func(i, j int) bool { return codes[i] == codes[j] })
		if 2*8*runs <= 4*n {
			vals, end := rleEncodeInt32(codes)
			return &RLEDictCol{V: vals, End: end, Dict: c.Dict}, true
		}
	}
	return nil, false
}

// DecodeChunk returns a plain representation of a chunk: encoded chunks are
// expanded into a fresh flat column, plain chunks are returned unchanged
// (no copy).
func DecodeChunk(c Column) Column {
	switch c := c.(type) {
	case *RLEInt32Col:
		return &Int32Col{V: c.DecodeInt32()}
	case *RLEInt64Col:
		return &Int64Col{V: c.DecodeInt64()}
	case *RLEDictCol:
		return &DictCol{Codes: c.DecodeCodes(), Dict: c.Dict}
	case *FoRInt32Col:
		return &Int32Col{V: c.DecodeInt32()}
	case *FoRInt64Col:
		return &Int64Col{V: c.DecodeInt64()}
	default:
		return c
	}
}

// int32ChunkValues returns the first n values of an int32-typed chunk as a
// flat slice, decoding if necessary. Plain chunks return their backing
// array without copying.
func int32ChunkValues(c Column, n int) []int32 {
	switch c := c.(type) {
	case *Int32Col:
		return c.V[:n]
	case *RLEInt32Col:
		return c.DecodeInt32()[:n]
	case *FoRInt32Col:
		return c.DecodeInt32()[:n]
	default:
		panic("storage: not an int32 chunk")
	}
}

// int64ChunkValues is int32ChunkValues for int64-typed chunks.
func int64ChunkValues(c Column, n int) []int64 {
	switch c := c.(type) {
	case *Int64Col:
		return c.V[:n]
	case *RLEInt64Col:
		return c.DecodeInt64()[:n]
	case *FoRInt64Col:
		return c.DecodeInt64()[:n]
	default:
		panic("storage: not an int64 chunk")
	}
}

// dictChunkCodes returns the first n codes of a dict-typed chunk as a flat
// slice, decoding if necessary.
func dictChunkCodes(c Column, n int) []int32 {
	switch c := c.(type) {
	case *DictCol:
		return c.Codes[:n]
	case *RLEDictCol:
		return c.DecodeCodes()[:n]
	default:
		panic("storage: not a dict chunk")
	}
}

// encodeSegmentLocked replaces the segment's plain chunks with encoded ones
// where beneficial. Safe on sealed segments only (their chunks never see
// in-place writes); snapshots hold their own chunk-header copies, so
// replacing the map entry is invisible to pinned readers. Caller holds the
// table mutex.
func (t *Table) encodeSegmentLocked(s *Segment) {
	if !t.encodeSealed || !s.sealed {
		return
	}
	for name, c := range s.cols {
		if ec, ok := EncodeChunk(c, s.n); ok {
			s.cols[name] = ec
		}
	}
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
				l.LogicalBytes += int64(encodedBytes(DecodeChunk(c), s.n))
			} else {
				l.LogicalBytes += int64(encodedBytes(c, s.n))
			}
		}
	}
	return l
}
