package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
)

// orderValue decodes one sort-key value from data: the kind's extremes,
// one of 32 small values (so keys tie), or raw bytes (so spans run wider
// than one 16-bit digit, up to the full int64 range). It returns the value
// and the rest of data.
func orderValue(kind int, data []byte) (int64, []byte) {
	if len(data) == 0 {
		return 0, data
	}
	b, data := data[0], data[1:]
	lo, hi, width := int64(math.MinInt64), int64(math.MaxInt64), 8
	switch kind {
	case 0: // int32
		lo, hi, width = math.MinInt32, math.MaxInt32, 4
	case 2: // dictionary codes
		lo, hi, width = 0, 1<<20, 3
	}
	switch b % 8 {
	case 0:
		return lo, data
	case 1:
		return hi, data
	case 6, 7:
		var raw [8]byte
		n := copy(raw[:width], data)
		v := int64(binary.LittleEndian.Uint64(raw[:]))
		if kind == 0 {
			v = int64(int32(v))
		}
		return v, data[n:]
	}
	return int64(b >> 3), data
}

// FuzzConsolidateOrder checks the order Consolidate lays a table out in
// against the comparison sort it replaced: over one to three sort keys of
// int32, int64 or dictionary-code columns, with ties and deleted rows, the
// remap must equal the inverse of a stable sort of the live rows by the
// keys, and every row must land where the remap says.
//
// spec picks the key count (spec&3 mod 3, plus one) and each key's kind
// (two bits per key: int32, int64, dictionary code); segRows, when
// nonzero, seals the table at 1–16 rows first, so the keys are read back
// through sealed, encoded chunks; each row of data is a flag byte (bit 0:
// delete the row) followed by one value per key (orderValue).
func FuzzConsolidateOrder(f *testing.F) {
	// One int64 key spanning 2^40 (three digit passes), with ties and a
	// deleted row; rows are flag, value (6: eight raw bytes; 0x12: 2).
	f.Add(uint8(1<<2), uint8(0), []byte{
		0, 6, 0x70, 0x11, 1, 0, 0, 0, 0, 0, // 70 000
		0, 0x12,
		1, 0x12,
		0, 6, 0, 0, 0, 0, 0, 1, 0, 0, // 2^40
		0, 0x12,
		0, 6, 0x70, 0x11, 1, 0, 0, 0, 0, 0,
		0, 0x1a, // 3
	})
	// Three keys (int32, int64, dictionary code) with both int64 extremes,
	// sealed at 5 rows; rows are flag, then one value per key (0: min,
	// 1: max, 0x0a/0x12/0x1a: 1/2/3, 6: raw bytes).
	f.Add(uint8(2|0<<2|1<<4|2<<6), uint8(4), []byte{
		0, 0x12, 0, 0x1a,
		0, 0x12, 1, 0x12,
		1, 0x0a, 0x12, 0x12,
		0, 0x0a, 1, 0x1a,
		0, 0x12, 0, 0x12,
		0, 1, 0x12, 6, 0xff, 0xff, 0x0f,
		0, 0x12, 0, 0x1a,
	})
	f.Fuzz(func(t *testing.T, spec, segRows uint8, data []byte) {
		nkeys := int(spec&3)%3 + 1
		kinds := make([]int, nkeys)
		for k := range kinds {
			kinds[k] = int(spec>>(2+2*k)&3) % 3
		}
		keys := make([][]int64, nkeys)
		var deleted []bool
		for len(data) > 0 && len(deleted) < 512 {
			deleted = append(deleted, data[0]&1 == 1)
			data = data[1:]
			for k, kind := range kinds {
				var v int64
				v, data = orderValue(kind, data)
				keys[k] = append(keys[k], v)
			}
		}
		n := len(deleted)

		tb := NewTable("o")
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i)
		}
		tb.MustAddColumn("id", NewInt64Col(ids))
		names := make([]string, nkeys)
		for k, kind := range kinds {
			names[k] = fmt.Sprintf("k%d", k)
			switch kind {
			case 0:
				v := make([]int32, n)
				for i, x := range keys[k] {
					v[i] = int32(x)
				}
				tb.MustAddColumn(names[k], NewInt32Col(v))
			case 1:
				tb.MustAddColumn(names[k], NewInt64Col(keys[k]))
			case 2:
				// Codes as stored: the dictionary need not hold them all
				// for the sort, which reads codes only.
				v := make([]int32, n)
				for i, x := range keys[k] {
					v[i] = int32(x)
				}
				tb.MustAddColumn(names[k], &DictCol{Codes: v, Dict: NewDict()})
			}
		}
		db := NewDatabase()
		db.MustAdd(tb)
		if segRows > 0 {
			if err := tb.EncodeSealed(); err != nil {
				t.Fatal(err)
			}
			if err := tb.SetSegmentTarget(int(segRows)%16 + 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.SetSortKeys(names...); err != nil {
			t.Fatal(err)
		}
		var live []int32
		for i, d := range deleted {
			if d {
				if err := tb.Delete(i); err != nil {
					t.Fatal(err)
				}
			} else {
				live = append(live, int32(i))
			}
		}

		// The reference order: a stable comparison sort of the live rows.
		slices.SortStableFunc(live, func(a, b int32) int {
			for _, key := range keys {
				if c := cmp.Compare(key[a], key[b]); c != 0 {
					return c
				}
			}
			return 0
		})
		want := make([]int32, n)
		for i := range want {
			want[i] = -1
		}
		for at, row := range live {
			want[row] = int32(at)
		}

		remap, err := Consolidate(db, tb)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(remap, want) {
			t.Fatalf("kinds %v: remap %v, want %v", kinds, remap, want)
		}
		if tb.NumRows() != len(live) {
			t.Fatalf("%d rows after consolidation, want %d", tb.NumRows(), len(live))
		}
		for at, row := range live {
			if v, _, _ := segValue(t, tb, "id", at); v != int64(row) {
				t.Fatalf("row %d holds id %d, want %d", at, v, row)
			}
		}
	})
}
