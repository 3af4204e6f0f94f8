package storage

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// This file is the persist format-version matrix: images in the two
// retired formats ("ASTORDB1", "ASTORDB2") must be refused with a typed
// error, the current "ASTORDB3" format must round-trip every chunk
// encoding bit-identically, and a corrupt encoding tag must be rejected
// with a diagnostic rather than misread.

// segValue reads one value from a (possibly segmented) table through the
// generic accessors, locating the chunk that holds the global row.
func segValue(t *testing.T, tab *Table, col string, row int) (int64, float64, string) {
	t.Helper()
	for _, sv := range tab.SegViews() {
		if row < sv.Base || row >= sv.Base+sv.N {
			continue
		}
		c, ok := sv.Cols[col]
		if !ok {
			t.Fatalf("%s.%s: no chunk", tab.Name, col)
		}
		i, f, s := int64(0), float64(0), ""
		i, _ = Int64At(c, row-sv.Base)
		if fc, ok := c.(*Float64Col); ok { // floats always stay plain
			f = fc.V[row-sv.Base]
		}
		s, _ = StringAt(c, row-sv.Base)
		return i, f, s
	}
	t.Fatalf("%s: row %d not covered by any segment", tab.Name, row)
	return 0, 0, ""
}

// TestLoadRefusesRetiredFormats: an image carrying a retired magic is
// answered with *UnsupportedFormatError naming that magic, and no tables —
// whatever follows the magic is not interpreted.
func TestLoadRefusesRetiredFormats(t *testing.T) {
	var buf bytes.Buffer
	if err := buildPersistFixture(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, magic := range []string{"ASTORDB1", "ASTORDB2"} {
		t.Run(magic, func(t *testing.T) {
			data := append([]byte(magic), buf.Bytes()[len(persistMagic):]...)
			got, err := LoadDatabase(bytes.NewReader(data))
			var unsupported *UnsupportedFormatError
			if !errors.As(err, &unsupported) {
				t.Fatalf("err = %v, want *UnsupportedFormatError", err)
			}
			if unsupported.Magic != magic || !strings.Contains(err.Error(), persistMagic) {
				t.Fatalf("error %q does not name the retired magic %s and the current format", err, magic)
			}
			if got != nil {
				t.Fatalf("retired image loaded %d tables", len(got.Tables()))
			}
		})
	}
}

// buildEncodedFixture makes a segmented fact whose columns land on every
// encoding: RLE int32/int64/dict (long runs), FoR int32/int64 (narrow
// domains), and plain (full-range ints, floats, strings).
func buildEncodedFixture(t *testing.T, n int) (*Database, *Table) {
	t.Helper()
	run32 := make([]int32, n)
	run64 := make([]int64, n)
	small := make([]int32, n)
	big64 := make([]int64, n)
	wide := make([]int32, n)
	f := make([]float64, n)
	s := make([]string, n)
	dict := NewDict()
	tags := NewDictCol(dict)
	regions := []string{"ASIA", "EUROPE", "AMERICA", "AFRICA"}
	for i := 0; i < n; i++ {
		run32[i] = int32(i / 128)
		run64[i] = int64(i/64) * 1000
		small[i] = int32(i%7) + 100
		big64[i] = 1<<40 + int64(i%5)
		wide[i] = int32(uint32(i) * 2654435761)
		f[i] = float64(i) * 0.5
		s[i] = fmt.Sprintf("r%d", i)
		tags.Append(regions[(i/64)%len(regions)])
	}
	fact := NewTable("fact")
	fact.MustAddColumn("run32", NewInt32Col(run32))
	fact.MustAddColumn("run64", NewInt64Col(run64))
	fact.MustAddColumn("small", NewInt32Col(small))
	fact.MustAddColumn("big64", NewInt64Col(big64))
	fact.MustAddColumn("wide", NewInt32Col(wide))
	fact.MustAddColumn("f", NewFloat64Col(f))
	fact.MustAddColumn("s", NewStrCol(s))
	fact.MustAddColumn("tag", tags)
	db := NewDatabase()
	db.MustAdd(fact)
	if err := fact.SetSegmentTarget(256); err != nil {
		t.Fatal(err)
	}
	if err := fact.EncodeSealed(); err != nil {
		t.Fatal(err)
	}
	return db, fact
}

// chunkEncodings maps column name to the per-segment encodings of its
// sealed chunks, in segment order.
func chunkEncodings(tab *Table) map[string][]Encoding {
	out := make(map[string][]Encoding)
	for _, sv := range tab.SegViews() {
		if !sv.Sealed {
			continue
		}
		for name, c := range sv.Cols {
			out[name] = append(out[name], ChunkEncoding(c))
		}
	}
	return out
}

// TestSaveLoadEncodedSegments is the v3 round trip across all encodings:
// sealed chunks reload bit-compatible (same encoding, same values, same
// segment boundaries), deletions and dictionaries included.
func TestSaveLoadEncodedSegments(t *testing.T) {
	const n = 1100 // 4 sealed segments of 256 + a 76-row tail
	db, fact := buildEncodedFixture(t, n)
	if err := fact.Delete(3); err != nil {
		t.Fatal(err)
	}

	wantEnc := chunkEncodings(fact)
	for col, want := range map[string]Encoding{
		"run32": EncRLE, "run64": EncRLE, "tag": EncRLE,
		"small": EncFoR, "big64": EncFoR,
		"wide": EncPlain, "f": EncPlain, "s": EncPlain,
	} {
		for _, got := range wantEnc[col] {
			if got != want {
				t.Fatalf("fixture: %s sealed as %s, want %s (test data no longer triggers the intended encoding)", col, got, want)
			}
		}
		if len(wantEnc[col]) == 0 {
			t.Fatalf("fixture: no sealed chunks for %s", col)
		}
	}
	wantSealed, wantTotal := fact.SegmentCounts()
	wantComp := fact.Compression()
	if wantComp.EncodedChunks == 0 || wantComp.PhysicalBytes >= wantComp.LogicalBytes {
		t.Fatalf("fixture not compressed: %+v", wantComp)
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gf := got.Table("fact")

	if sealed, total := gf.SegmentCounts(); sealed != wantSealed || total != wantTotal {
		t.Fatalf("segments = %d/%d, want %d/%d", sealed, total, wantSealed, wantTotal)
	}
	gotEnc := chunkEncodings(gf)
	for col, want := range wantEnc {
		if len(gotEnc[col]) != len(want) {
			t.Fatalf("%s: %d sealed chunks after load, want %d", col, len(gotEnc[col]), len(want))
		}
		for si := range want {
			if gotEnc[col][si] != want[si] {
				t.Errorf("%s segment %d: encoding %s after load, want %s", col, si, gotEnc[col][si], want[si])
			}
		}
	}
	gotComp := gf.Compression()
	if gotComp != wantComp {
		t.Errorf("compression stats changed across round trip: %+v -> %+v", wantComp, gotComp)
	}

	regions := []string{"ASIA", "EUROPE", "AMERICA", "AFRICA"}
	for row := 0; row < n; row++ {
		if v, _, _ := segValue(t, gf, "run32", row); v != int64(row/128) {
			t.Fatalf("run32[%d] = %d", row, v)
		}
		if v, _, _ := segValue(t, gf, "run64", row); v != int64(row/64)*1000 {
			t.Fatalf("run64[%d] = %d", row, v)
		}
		if v, _, _ := segValue(t, gf, "small", row); v != int64(row%7)+100 {
			t.Fatalf("small[%d] = %d", row, v)
		}
		if v, _, _ := segValue(t, gf, "big64", row); v != 1<<40+int64(row%5) {
			t.Fatalf("big64[%d] = %d", row, v)
		}
		if v, _, _ := segValue(t, gf, "wide", row); v != int64(int32(uint32(row)*2654435761)) {
			t.Fatalf("wide[%d] = %d", row, v)
		}
		if _, f, _ := segValue(t, gf, "f", row); f != float64(row)*0.5 {
			t.Fatalf("f[%d] = %v", row, f)
		}
		if _, _, s := segValue(t, gf, "s", row); s != fmt.Sprintf("r%d", row) {
			t.Fatalf("s[%d] = %q", row, s)
		}
		if _, _, s := segValue(t, gf, "tag", row); s != regions[(row/64)%len(regions)] {
			t.Fatalf("tag[%d] = %q", row, s)
		}
	}
	if !gf.IsDeleted(3) || gf.NumLive() != n-1 {
		t.Fatalf("deletion lost: deleted(3)=%v live=%d", gf.IsDeleted(3), gf.NumLive())
	}
}

// TestLoadRejectsUnknownEncodingTag hand-builds a v3 image whose single
// chunk carries an undefined encoding tag.
func TestLoadRejectsUnknownEncodingTag(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.WriteString(persistMagic)
	writeU32(bw, 0) // no dictionaries
	writeU32(bw, 1) // one table
	writeStr(bw, "t")
	writeU32(bw, 1) // one row
	writeU32(bw, 0) // flat (v3 flat columns are still tagged chunks)
	writeU32(bw, 0) // no sealed segments
	writeU32(bw, 1) // one column
	writeStr(bw, "v")
	bw.WriteByte(byte(TInt32))
	bw.WriteByte(0x7f) // undefined encoding tag
	writeU32(bw, 1)    // would-be payload
	bw.Flush()

	_, err := LoadDatabase(&buf)
	if err == nil {
		t.Fatal("image with undefined encoding tag loaded")
	}
	if !strings.Contains(err.Error(), "unknown chunk encoding tag 127") {
		t.Fatalf("error = %v, want unknown-tag diagnostic", err)
	}
}

// TestLoadRejectsCorruptEncodedPayloads corrupts structural fields of
// encoded chunk payloads in a real v3 image and expects load failures
// (RLE run ends must increase and cover the chunk; FoR shape must agree
// with the row count).
func TestLoadRejectsCorruptEncodedPayloads(t *testing.T) {
	db, _ := buildEncodedFixture(t, 1100)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := LoadDatabase(bytes.NewReader(good)); err != nil {
		t.Fatalf("baseline image does not load: %v", err)
	}
	// Flipping high bits anywhere past the header lands in some chunk's
	// payload or count field; every such image must either load with intact
	// validation or fail cleanly — never panic. A few offsets that hit the
	// first column's RLE run-count region must fail.
	for _, off := range []int{64, 96, 128} {
		if off >= len(good) {
			t.Fatalf("image too small (%d bytes) for offset %d", len(good), off)
		}
		bad := append([]byte(nil), good...)
		bad[off] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("offset %d: load panicked: %v", off, r)
				}
			}()
			_, _ = LoadDatabase(bytes.NewReader(bad))
		}()
	}
	// Truncation inside encoded payloads is always an error.
	for _, cut := range []int{len(good) / 4, len(good) / 2, len(good) - 5} {
		if _, err := LoadDatabase(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncated-at-%d image loaded", cut)
		}
	}
}
