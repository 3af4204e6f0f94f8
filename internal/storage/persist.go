package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Binary database image format (little-endian throughout):
//
//	magic "ASTORDB3"
//	u32 dictCount, then per dictionary: u32 valueCount, values (u32 len + bytes)
//	u32 tableCount, then per table:
//	    name, u32 rowCount
//	    u32 segmentTarget (0 = the tail never seals)
//	    u32 sealedSegmentCount, then per sealed segment: u32 rowCount
//	        (the segment manifest; the tail holds the remaining rows)
//	    u32 colCount
//	    per column: name, u8 type [+ u32 dictionary index for dict columns],
//	    then one tagged chunk per segment, sealed ones first, the tail last:
//	        u8 encoding tag (0 = plain, 1 = RLE, 2 = FoR), payload:
//	        plain int32/int64/float64: fixed-width array
//	        plain string:              per-row u32 len + bytes
//	        plain dict:                code array (u32 each)
//	        RLE:  u32 runCount, run values (u32 or u64 by type), then
//	              cumulative exclusive run ends (u32 each)
//	        FoR:  u64 base, u8 bit width, u32 rowCount, u32 wordCount,
//	              packed words (u64 each)
//	    u8 hasDeletionVector [+ bitmap words]
//	    u32 fkCount, then per FK: column name, referenced table name
//
// Sealed chunks persist in their in-memory encoding, so an image written
// by a table with sealed-segment encodings restores bit-identical encoded
// chunks (zone maps are recomputed, not stored). This is the only format
// LoadDatabase reads: the retired "ASTORDB1"/"ASTORDB2" images, which no
// writer produces any more, are refused with *UnsupportedFormatError.
//
// Shared dictionaries serialize once and rewire on load, preserving the
// code stability that lets tables share them. The slot free list is not
// stored; it is derivable from the deletion vector.
const persistMagic = "ASTORDB3"

// UnsupportedFormatError reports a database image in a retired format.
type UnsupportedFormatError struct {
	Magic string
}

func (e *UnsupportedFormatError) Error() string {
	return fmt.Sprintf("storage: load: image format %q is no longer supported; this build reads only %q",
		e.Magic, persistMagic)
}

// maxLoadCount bounds element counts read from an image, as a defense
// against corrupt or hostile files.
const maxLoadCount = 1 << 31

// Save writes the database as a binary image. The writer is buffered
// internally; callers own closing the underlying file.
func (db *Database) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return err
	}

	// Collect shared dictionaries in first-appearance order.
	var dicts []*Dict
	dictID := make(map[*Dict]uint32)
	for _, t := range db.tables {
		for _, name := range t.names {
			if t.colTypes[name] == TDict {
				d := t.colDicts[name]
				if _, seen := dictID[d]; !seen {
					dictID[d] = uint32(len(dicts))
					dicts = append(dicts, d)
				}
			}
		}
	}
	writeU32(bw, uint32(len(dicts)))
	for _, d := range dicts {
		writeU32(bw, uint32(d.Len()))
		for _, s := range d.Values() {
			writeStr(bw, s)
		}
	}

	writeU32(bw, uint32(len(db.tables)))
	for _, t := range db.tables {
		// Hold the table's writer mutex for the duration of its record so
		// the manifest, column payloads, and deletion bits describe one
		// consistent state even while writers keep mutating other tables.
		t.mu.Lock()
		err := saveTableLocked(bw, t, dictID)
		t.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// saveTableLocked writes one table record. Segment chunks stream directly
// into the column payload (chunks concatenate in row order — no flattened
// copy is materialized); the manifest preserves the boundaries. Caller
// holds t.mu.
func saveTableLocked(bw *bufio.Writer, t *Table, dictID map[*Dict]uint32) error {
	writeStr(bw, t.Name)
	writeU32(bw, uint32(t.nrows))
	writeU32(bw, uint32(t.segTarget))
	writeU32(bw, uint32(len(t.segs)))
	for _, s := range t.segs {
		writeU32(bw, uint32(s.n))
	}
	writeU32(bw, uint32(len(t.names)))
	for _, name := range t.names {
		writeStr(bw, name)
		if err := bw.WriteByte(byte(t.colTypes[name])); err != nil {
			return err
		}
		if t.colTypes[name] == TDict {
			writeU32(bw, dictID[t.colDicts[name]])
		}
		for s := range t.segments() {
			if err := writeChunkPayload(bw, s.cols[name], s.n); err != nil {
				return fmt.Errorf("storage: save %s.%s: %w", t.Name, name, err)
			}
		}
	}

	// Deletion bits, combined across segments into one global vector.
	if del := t.deletedLocked(); del != nil {
		bw.WriteByte(1)
		if err := writeLE(bw, del.Words()); err != nil {
			return err
		}
	} else {
		bw.WriteByte(0)
	}
	writeU32(bw, uint32(len(t.fks)))
	for _, col := range t.names {
		if ref := t.fks[col]; ref != nil {
			writeStr(bw, col)
			writeStr(bw, ref.Name)
		}
	}
	return nil
}

// LoadDatabase reads a binary image written by Save, rebuilding tables,
// shared dictionaries, deletion vectors, slot free lists, and FK edges.
func LoadDatabase(r io.Reader) (*Database, error) {
	d := &imageReader{r: bufio.NewReaderSize(r, 1<<20)}
	switch magic := string(d.bytes(len(persistMagic))); {
	case d.err != nil:
		return nil, fmt.Errorf("storage: load: %w", d.err)
	case magic == "ASTORDB1" || magic == "ASTORDB2":
		return nil, &UnsupportedFormatError{Magic: magic}
	case magic != persistMagic:
		return nil, fmt.Errorf("storage: load: bad magic %q", magic)
	}

	var dicts []*Dict
	for i, nd := 0, d.count("dictionary count"); i < nd && d.err == nil; i++ {
		dict := NewDict()
		for v, nv := 0, d.count("dictionary size"); v < nv && d.err == nil; v++ {
			dict.Intern(d.str())
		}
		dicts = append(dicts, dict)
	}

	db := NewDatabase()
	type fkEdge struct{ table, col, ref string }
	var edges []fkEdge
	for ti, nt := uint32(0), d.u32(); ti < nt && d.err == nil; ti++ {
		t := d.table(dicts)
		for f, nfk := uint32(0), d.u32(); f < nfk && d.err == nil; f++ {
			col := d.str()
			edges = append(edges, fkEdge{table: t.Name, col: col, ref: d.str()})
		}
		if d.err == nil {
			d.err = db.Add(t)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	for _, e := range edges {
		t, ref := db.Table(e.table), db.Table(e.ref)
		if ref == nil {
			return nil, fmt.Errorf("storage: load: FK %s.%s references unknown table %s", e.table, e.col, e.ref)
		}
		if err := t.AddFK(e.col, ref); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// imageReader reads the fields of an image and keeps the first error: after
// it, every read returns a zero value without touching the input, so the
// loader checks for an error once per record, and every loop over a count
// read from the image stops at the first error.
type imageReader struct {
	r   *bufio.Reader
	err error
}

func (d *imageReader) failf(format string, a ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, a...)
	}
}

func (d *imageReader) read(b []byte) {
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, b)
	}
}

func (d *imageReader) u8() byte {
	var b [1]byte
	d.read(b[:])
	return b[0]
}

func (d *imageReader) u32() uint32 {
	var b [4]byte
	d.read(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (d *imageReader) u64() uint64 {
	var b [8]byte
	d.read(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// count reads an element count, refusing one above maxLoadCount.
func (d *imageReader) count(what string) int {
	n := d.u32()
	if n > maxLoadCount {
		d.failf("storage: load: %s %d too large", what, n)
		return 0
	}
	return int(n)
}

func (d *imageReader) str() string {
	n := d.u32()
	if n > 1<<28 {
		d.failf("storage: load: string length %d too large", n)
	}
	return string(d.bytes(int(n)))
}

// bytes reads n bytes, growing the buffer as the input delivers them, so a
// corrupt count cannot reserve memory the input does not back.
func (d *imageReader) bytes(n int) []byte {
	const step = 1 << 16
	if d.err != nil {
		return nil
	}
	b := make([]byte, 0, min(n, step))
	for len(b) < n && d.err == nil {
		k := min(n-len(b), step)
		b = slices.Grow(b, k)[:len(b)+k]
		d.read(b[len(b)-k:])
	}
	return b
}

// table reads one table record up to its foreign keys: the shape, the
// segment manifest, every column's chunks and the deletion vector.
func (d *imageReader) table(dicts []*Dict) *Table {
	t := NewTable(d.str())
	nrows, segTarget := d.u32(), d.u32()
	nseg := d.count("segment count")
	// counts holds the rows of every segment, sealed ones first; the tail
	// holds the rows the manifest does not account for.
	var counts []int
	total := 0
	for si := 0; si < nseg && d.err == nil; si++ {
		counts = append(counts, int(d.u32()))
		total += counts[si]
	}
	ncols := d.u32()
	switch {
	case segTarget == 0 && nseg > 0:
		d.failf("storage: load: table %s has segments but no segment target", t.Name)
	case total > int(nrows):
		d.failf("storage: load: table %s segment manifest exceeds row count", t.Name)
	case nrows > maxLoadCount || ncols > 1<<20:
		d.failf("storage: load: table %s implausible shape", t.Name)
	}
	counts = append(counts, int(nrows)-total)
	chunks := make(map[string][]Column)
	for ci := uint32(0); ci < ncols && d.err == nil; ci++ {
		name := d.str()
		typ, dict := d.columnHeader(dicts)
		if _, dup := t.colTypes[name]; dup {
			d.failf("duplicate column")
		}
		t.names = append(t.names, name)
		t.colTypes[name] = typ
		if dict != nil {
			t.colDicts[name] = dict
		}
		t.schemaVersion++
		for si, n := range counts {
			c := d.chunk(typ, n, dict)
			if si == len(counts)-1 && d.err == nil && ChunkEncoding(c) != EncPlain {
				d.failf("tail chunk is %s-encoded, want plain", ChunkEncoding(c))
			}
			chunks[name] = append(chunks[name], c)
		}
		if d.err != nil {
			d.err = fmt.Errorf("storage: load %s.%s: %w", t.Name, name, d.err)
		}
	}
	t.nrows = int(nrows) // tables with zero columns still carry rows
	var del *Bitmap
	if d.u8() == 1 {
		words := readLE[uint64](d, (t.nrows+63)/64)
		if d.err == nil {
			del = NewBitmap(t.nrows)
			copy(del.Words(), words)
			del.trim() // bits past the last row are not rows
			t.free = del.AppendSet(nil)
		}
	}
	if d.err == nil {
		// Install the on-disk segments directly, preserving sealed-chunk
		// encodings (zone maps are recomputed).
		t.segTarget = int(segTarget)
		t.installSegmentsLocked(chunks, counts, del)
	}
	return t
}

// writeColumnPayload writes the first n elements of a chunk's array (type
// byte and dictionary header are written once per column by the caller,
// before the per-segment payloads): strings with a length prefix each,
// every other type as fixed-width little-endian words.
func writeColumnPayload(w *bufio.Writer, c Column, n int) error {
	if c, ok := c.(*StrCol); ok {
		for _, s := range c.V[:n] {
			writeStr(w, s)
		}
		return nil
	}
	return c.(plainChunk).writeLE(w, n)
}

// writeChunkPayload writes one chunk as a u8 encoding tag plus payload.
// Encoded chunks persist their compressed representation directly.
func writeChunkPayload(w *bufio.Writer, c Column, n int) error {
	if err := w.WriteByte(byte(ChunkEncoding(c))); err != nil {
		return err
	}
	switch c := c.(type) {
	case *RLECol:
		writeU32(w, uint32(len(c.End)))
		if err := writeColumnPayload(w, c.Vals, len(c.End)); err != nil {
			return err
		}
		return writeLE(w, c.End)
	case *FoRCol:
		writeU64(w, uint64(c.Base))
		w.WriteByte(c.Width)
		writeU32(w, uint32(c.N))
		writeU32(w, uint32(len(c.Words)))
		return writeLE(w, c.Words)
	}
	return writeColumnPayload(w, c, n)
}

// runEnds reads and validates cumulative run ends: strictly increasing,
// the last equal to the chunk row count n.
func (d *imageReader) runEnds(runs, n int) []int32 {
	end := readLE[int32](d, runs)
	prev := int32(0)
	for _, e := range end {
		if e <= prev {
			d.failf("storage: load: RLE run ends not increasing")
			return nil
		}
		prev = e
	}
	if int(prev) != n {
		d.failf("storage: load: RLE run ends cover %d rows, want %d", prev, n)
	}
	return end
}

// chunk reads one tagged chunk of n rows for a column of the given declared
// type (dict carries the already-resolved shared dictionary).
func (d *imageReader) chunk(typ Type, n int, dict *Dict) Column {
	tag := Encoding(d.u8())
	if d.err != nil {
		return nil
	}
	switch tag {
	case EncPlain:
		return d.plain(typ, n, dict)
	case EncRLE:
		if typ != TInt32 && typ != TInt64 && typ != TDict {
			d.failf("storage: load: RLE encoding invalid for type %s", typ)
			return nil
		}
		runs := int(d.u32())
		if runs > n {
			d.failf("storage: load: RLE chunk has %d runs over %d rows", runs, n)
			return nil
		}
		vals := d.plain(typ, runs, dict)
		return &RLECol{End: d.runEnds(runs, n), Vals: vals}
	case EncFoR:
		if typ != TInt32 && typ != TInt64 {
			d.failf("storage: load: FoR encoding invalid for type %s", typ)
			return nil
		}
		base, width, cn, nwords := d.u64(), d.u8(), d.u32(), d.u32()
		wantWords := (uint64(cn)*uint64(width) + 63) / 64
		if width > 64 || int(cn) != n || uint64(nwords) != wantWords {
			d.failf("storage: load: FoR chunk shape invalid (width %d, rows %d/%d, words %d/%d)",
				width, cn, n, nwords, wantWords)
		}
		return &FoRCol{Typ: typ, Base: int64(base), Width: width, N: n, Words: readLE[uint64](d, int(nwords))}
	}
	d.failf("storage: load: unknown chunk encoding tag %d", tag)
	return nil
}

// columnHeader reads a column's type byte plus, for dict columns, its
// shared dictionary reference.
func (d *imageReader) columnHeader(dicts []*Dict) (Type, *Dict) {
	typ := Type(d.u8())
	switch typ {
	case TInt32, TInt64, TFloat64, TString:
	case TDict:
		di := d.u32()
		if int(di) < len(dicts) {
			return typ, dicts[di]
		}
		d.failf("storage: dictionary index %d out of range", di)
	default:
		d.failf("storage: unknown column type byte %d", typ)
	}
	return typ, nil
}

// plain reads a flat array of n elements of the given type.
func (d *imageReader) plain(typ Type, n int, dict *Dict) Column {
	if typ == TString {
		// Strings grow as they arrive: n is a header field, and a string
		// header costs more memory than its length prefix costs input.
		v := make([]string, 0, min(n, 1<<12))
		for len(v) < n && d.err == nil {
			v = append(v, d.str())
		}
		return &StrCol{V: v}
	}
	c := newChunk(typ, dict, 0).(plainChunk) // columnHeader has checked typ
	c.readLE(d, n)
	if dc, ok := c.(*DictCol); ok {
		for _, x := range dc.Codes {
			if x < 0 || int(x) >= dict.Len() {
				d.failf("storage: code %d out of dictionary range", uint32(x))
				break
			}
		}
	}
	return c
}

// writeLE writes a fixed-width array as little-endian words, in bounded
// steps: binary.Write buffers what it is given.
func writeLE[T any](w *bufio.Writer, v []T) error {
	for len(v) > 0 {
		k := min(len(v), 1<<13)
		if err := binary.Write(w, binary.LittleEndian, v[:k]); err != nil {
			return err
		}
		v = v[k:]
	}
	return nil
}

// readLE reads n fixed-width little-endian values (T is never a string:
// plain reads string payloads itself).
func readLE[T any](d *imageReader, n int) []T {
	b := d.bytes(n * binary.Size(*new(T)))
	if d.err != nil {
		return nil
	}
	v := make([]T, n)
	_, d.err = binary.Decode(b, binary.LittleEndian, v)
	return v
}

func writeU32(w *bufio.Writer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func writeU64(w *bufio.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

func writeStr(w *bufio.Writer, s string) {
	writeU32(w, uint32(len(s)))
	w.WriteString(s)
}
