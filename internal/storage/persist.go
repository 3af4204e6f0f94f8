package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
	if t.NumLive() < t.nrows {
		bw.WriteByte(1)
		words := make([]uint64, (t.nrows+63)/64)
		for s := range t.segments() {
			if s.del == nil {
				continue
			}
			for j := s.del.NextSet(0); j >= 0 && j < s.n; j = s.del.NextSet(j + 1) {
				words[(s.base+j)>>6] |= 1 << (uint(s.base+j) & 63)
			}
		}
		for _, word := range words {
			writeU64(bw, word)
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
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("storage: load: %w", err)
	}
	switch string(magic) {
	case persistMagic:
	case "ASTORDB1", "ASTORDB2":
		return nil, &UnsupportedFormatError{Magic: string(magic)}
	default:
		return nil, fmt.Errorf("storage: load: bad magic %q", magic)
	}

	nd, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if nd > maxLoadCount {
		return nil, fmt.Errorf("storage: load: dictionary count %d too large", nd)
	}
	var dicts []*Dict
	for range nd {
		nv, err := readU32(br)
		if err != nil {
			return nil, err
		}
		if nv > maxLoadCount {
			return nil, fmt.Errorf("storage: load: dictionary size %d too large", nv)
		}
		d := NewDict()
		for v := uint32(0); v < nv; v++ {
			s, err := readStr(br)
			if err != nil {
				return nil, err
			}
			d.Intern(s)
		}
		dicts = append(dicts, d)
	}

	nt, err := readU32(br)
	if err != nil {
		return nil, err
	}
	db := NewDatabase()
	type fkEdge struct{ table, col, ref string }
	var edges []fkEdge
	for ti := uint32(0); ti < nt; ti++ {
		name, err := readStr(br)
		if err != nil {
			return nil, err
		}
		nrows, err := readU32(br)
		if err != nil {
			return nil, err
		}
		segTarget, err := readU32(br)
		if err != nil {
			return nil, err
		}
		nseg, err := readU32(br)
		if err != nil {
			return nil, err
		}
		if nseg > maxLoadCount {
			return nil, fmt.Errorf("storage: load: table %s implausible segment count", name)
		}
		var sealedRows []int
		total := uint64(0)
		for si := uint32(0); si < nseg; si++ {
			rows, err := readU32(br)
			if err != nil {
				return nil, err
			}
			total += uint64(rows)
			sealedRows = append(sealedRows, int(rows))
		}
		if segTarget == 0 && nseg > 0 {
			return nil, fmt.Errorf("storage: load: table %s has segments but no segment target", name)
		}
		if total > uint64(nrows) {
			return nil, fmt.Errorf("storage: load: table %s segment manifest exceeds row count", name)
		}
		ncols, err := readU32(br)
		if err != nil {
			return nil, err
		}
		if nrows > maxLoadCount || ncols > 1<<20 {
			return nil, fmt.Errorf("storage: load: table %s implausible shape", name)
		}
		t := NewTable(name)
		// Every column stores one tagged chunk per segment; the tail holds
		// the rows the manifest does not account for.
		chunkCounts := append(sealedRows, int(nrows-uint32(total)))
		chunks := make(map[string][]Column)
		for ci := uint32(0); ci < ncols; ci++ {
			colName, err := readStr(br)
			if err != nil {
				return nil, err
			}
			typ, dict, err := readColumnHeader(br, dicts)
			if err != nil {
				return nil, fmt.Errorf("storage: load %s.%s: %w", name, colName, err)
			}
			if _, dup := t.colTypes[colName]; dup {
				return nil, fmt.Errorf("storage: load %s: duplicate column %s", name, colName)
			}
			t.names = append(t.names, colName)
			t.colTypes[colName] = typ
			if dict != nil {
				t.colDicts[colName] = dict
			}
			t.schemaVersion++
			for si, cn := range chunkCounts {
				c, err := readChunk(br, typ, cn, dict)
				if err != nil {
					return nil, fmt.Errorf("storage: load %s.%s: %w", name, colName, err)
				}
				if si == len(chunkCounts)-1 && ChunkEncoding(c) != EncPlain {
					return nil, fmt.Errorf("storage: load %s.%s: tail chunk is %s-encoded, want plain", name, colName, ChunkEncoding(c))
				}
				chunks[colName] = append(chunks[colName], c)
			}
		}
		t.nrows = int(nrows) // tables with zero columns still carry rows
		hasDel, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		var del *Bitmap
		if hasDel == 1 {
			words, err := readFixed(br, (int(nrows)+63)/64, 8, binary.LittleEndian.Uint64)
			if err != nil {
				return nil, err
			}
			del = NewBitmap(int(nrows))
			for wi, word := range words {
				for b := 0; b < 64; b++ {
					i := wi*64 + b
					if i < int(nrows) && word&(1<<uint(b)) != 0 {
						del.Set(i)
						t.free = append(t.free, int32(i))
					}
				}
			}
		}
		// Install the on-disk segments directly, preserving sealed-chunk
		// encodings (zone maps are recomputed).
		t.segTarget = int(segTarget)
		t.installSegmentsLocked(chunks, chunkCounts, del)
		nfk, err := readU32(br)
		if err != nil {
			return nil, err
		}
		for f := uint32(0); f < nfk; f++ {
			col, err := readStr(br)
			if err != nil {
				return nil, err
			}
			ref, err := readStr(br)
			if err != nil {
				return nil, err
			}
			edges = append(edges, fkEdge{table: name, col: col, ref: ref})
		}
		if err := db.Add(t); err != nil {
			return nil, err
		}
	}
	for _, e := range edges {
		t := db.Table(e.table)
		ref := db.Table(e.ref)
		if ref == nil {
			return nil, fmt.Errorf("storage: load: FK %s.%s references unknown table %s", e.table, e.col, e.ref)
		}
		if err := t.AddFK(e.col, ref); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// writeColumnPayload writes the first n elements of a chunk's array (type
// byte and dictionary header are written once per column by the caller,
// before the per-segment payloads).
func writeColumnPayload(w *bufio.Writer, c Column, n int) error {
	switch c := c.(type) {
	case *Int32Col:
		for _, v := range c.V[:n] {
			writeU32(w, uint32(v))
		}
	case *Int64Col:
		for _, v := range c.V[:n] {
			writeU64(w, uint64(v))
		}
	case *Float64Col:
		for _, v := range c.V[:n] {
			writeU64(w, math.Float64bits(v))
		}
	case *StrCol:
		for _, s := range c.V[:n] {
			writeStr(w, s)
		}
	case *DictCol:
		for _, v := range c.Codes[:n] {
			writeU32(w, uint32(v))
		}
	default:
		return fmt.Errorf("storage: unknown column type %T", c)
	}
	return nil
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
		for _, e := range c.End {
			writeU32(w, uint32(e))
		}
	case *FoRCol:
		writeU64(w, uint64(c.Base))
		w.WriteByte(c.Width)
		writeU32(w, uint32(c.N))
		writeU32(w, uint32(len(c.Words)))
		for _, word := range c.Words {
			writeU64(w, word)
		}
	default:
		return writeColumnPayload(w, c, n)
	}
	return nil
}

// readRLEEnds reads and validates cumulative run ends: strictly increasing,
// last equal to the chunk row count.
func readRLEEnds(r *bufio.Reader, runs, n int) ([]int32, error) {
	end, err := readFixed(r, runs, 4, leInt32)
	if err != nil {
		return nil, err
	}
	prev := int32(0)
	for _, e := range end {
		if e <= prev {
			return nil, fmt.Errorf("storage: load: RLE run ends not increasing")
		}
		prev = e
	}
	if runs > 0 && int(end[runs-1]) != n {
		return nil, fmt.Errorf("storage: load: RLE run ends cover %d rows, want %d", end[runs-1], n)
	}
	if runs == 0 && n != 0 {
		return nil, fmt.Errorf("storage: load: RLE chunk of %d rows has no runs", n)
	}
	return end, nil
}

// readChunk reads one tagged chunk of n rows for a column of the given
// declared type (dict carries the already-resolved shared dictionary).
func readChunk(r *bufio.Reader, typ Type, n int, dict *Dict) (Column, error) {
	tag, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	switch Encoding(tag) {
	case EncPlain:
		return readPlainPayload(r, typ, n, dict)
	case EncRLE:
		if typ != TInt32 && typ != TInt64 && typ != TDict {
			return nil, fmt.Errorf("storage: load: RLE encoding invalid for type %s", typ)
		}
		runs, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if int(runs) > n {
			return nil, fmt.Errorf("storage: load: RLE chunk has %d runs over %d rows", runs, n)
		}
		vals, err := readPlainPayload(r, typ, int(runs), dict)
		if err != nil {
			return nil, err
		}
		end, err := readRLEEnds(r, int(runs), n)
		if err != nil {
			return nil, err
		}
		return &RLECol{End: end, Vals: vals}, nil
	case EncFoR:
		if typ != TInt32 && typ != TInt64 {
			return nil, fmt.Errorf("storage: load: FoR encoding invalid for type %s", typ)
		}
		base, err := readU64(r)
		if err != nil {
			return nil, err
		}
		width, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		cn, err := readU32(r)
		if err != nil {
			return nil, err
		}
		nwords, err := readU32(r)
		if err != nil {
			return nil, err
		}
		wantWords := (uint64(cn)*uint64(width) + 63) / 64
		if width > 64 || int(cn) != n || uint64(nwords) != wantWords {
			return nil, fmt.Errorf("storage: load: FoR chunk shape invalid (width %d, rows %d/%d, words %d/%d)",
				width, cn, n, nwords, wantWords)
		}
		words, err := readFixed(r, int(nwords), 8, binary.LittleEndian.Uint64)
		if err != nil {
			return nil, err
		}
		return &FoRCol{Typ: typ, Base: int64(base), Width: width, N: n, Words: words}, nil
	default:
		return nil, fmt.Errorf("storage: load: unknown chunk encoding tag %d", tag)
	}
}

// readColumnHeader reads a column's type byte plus, for dict columns, its
// shared dictionary reference.
func readColumnHeader(r *bufio.Reader, dicts []*Dict) (Type, *Dict, error) {
	tb, err := r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	typ := Type(tb)
	switch typ {
	case TInt32, TInt64, TFloat64, TString:
		return typ, nil, nil
	case TDict:
		di, err := readU32(r)
		if err != nil {
			return 0, nil, err
		}
		if int(di) >= len(dicts) {
			return 0, nil, fmt.Errorf("storage: dictionary index %d out of range", di)
		}
		return typ, dicts[di], nil
	default:
		return 0, nil, fmt.Errorf("storage: unknown column type byte %d", tb)
	}
}

// readPlainPayload reads a flat array of n elements of the given type.
func readPlainPayload(r *bufio.Reader, typ Type, n int, dict *Dict) (Column, error) {
	switch typ {
	case TInt32:
		v, err := readFixed(r, n, 4, leInt32)
		return &Int32Col{V: v}, err
	case TInt64:
		v, err := readFixed(r, n, 8, func(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) })
		return &Int64Col{V: v}, err
	case TFloat64:
		v, err := readFixed(r, n, 8, func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) })
		return &Float64Col{V: v}, err
	case TString:
		// Strings grow as they arrive: n is a header field, and a string
		// header costs more memory than its length prefix costs input.
		v := make([]string, 0, min(n, 1<<12))
		for len(v) < n {
			s, err := readStr(r)
			if err != nil {
				return nil, err
			}
			v = append(v, s)
		}
		return &StrCol{V: v}, nil
	case TDict:
		codes, err := readFixed(r, n, 4, leInt32)
		if err != nil {
			return nil, err
		}
		for _, x := range codes {
			if x < 0 || int(x) >= dict.Len() {
				return nil, fmt.Errorf("storage: code %d out of dictionary range", uint32(x))
			}
		}
		return &DictCol{Codes: codes, Dict: dict}, nil
	default:
		return nil, fmt.Errorf("storage: unknown column type %s", typ)
	}
}

// readFixed reads n little-endian values of size bytes each, decoding each
// with get. The raw bytes are read first, in bounded steps, so a corrupt
// count cannot reserve memory the input does not back.
func readFixed[T any](r *bufio.Reader, n, size int, get func([]byte) T) ([]T, error) {
	b, err := readBytes(r, n*size)
	if err != nil {
		return nil, err
	}
	v := make([]T, n)
	for i := range v {
		v[i] = get(b[i*size:])
	}
	return v, nil
}

func leInt32(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) }

// readBytes reads n bytes, growing the buffer as the input delivers them.
func readBytes(r *bufio.Reader, n int) ([]byte, error) {
	const step = 1 << 16
	b := make([]byte, 0, min(n, step))
	for len(b) < n {
		k := min(n-len(b), step)
		b = slices.Grow(b, k)[:len(b)+k]
		if _, err := io.ReadFull(r, b[len(b)-k:]); err != nil {
			return nil, err
		}
	}
	return b, nil
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

func readU32(r *bufio.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readU64(r *bufio.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func readStr(r *bufio.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 1<<28 {
		return "", fmt.Errorf("storage: load: string length %d too large", n)
	}
	b, err := readBytes(r, int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}
