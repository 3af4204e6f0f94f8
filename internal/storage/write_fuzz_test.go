package storage

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// writeTable is a table with one column of every type plus a foreign key
// into a three-row dimension; it is all tail, so Column reads every row.
func writeTable() *Table {
	dim := NewTable("dim")
	dim.MustAddColumn("d", NewInt64Col([]int64{0, 1, 2}))
	t := NewTable("w")
	t.MustAddColumn("i32", NewInt32Col(nil))
	t.MustAddColumn("i64", NewInt64Col(nil))
	t.MustAddColumn("f64", NewFloat64Col(nil))
	t.MustAddColumn("str", NewStrCol(nil))
	t.MustAddColumn("dict", NewDictCol(NewDict()))
	t.MustAddColumn("fk", NewInt32Col(nil))
	t.MustAddFK("fk", dim)
	return t
}

// stored reads row i of every column as int64, float64 or string.
func stored(t *Table, i int) map[string]any {
	out := make(map[string]any)
	for _, name := range t.ColumnNames() {
		c := t.Column(name)
		if f, ok := c.(*Float64Col); ok {
			out[name] = f.V[i]
		} else if s, ok := StringAt(c, i); ok {
			out[name] = s
		} else {
			out[name], _ = Int64At(c, i)
		}
	}
	return out
}

// wantStored is the write paths' contract, written out independently of
// convert: the value a column of type typ stores for v, in stored's terms,
// and whether it accepts v at all. A json.Number stands for the number its
// text spells.
func wantStored(typ Type, v any) (any, bool) {
	var i int64
	isInt := true
	switch x := v.(type) {
	case int:
		i = int64(x)
	case int32:
		i = int64(x)
	case int64:
		i = x
	case json.Number:
		var err error
		i, err = strconv.ParseInt(string(x), 10, 64)
		isInt = err == nil
	default:
		isInt = false
	}
	switch typ {
	case TInt32:
		return i, isInt && i >= math.MinInt32 && i <= math.MaxInt32
	case TInt64:
		return i, isInt
	case TFloat64:
		switch x := v.(type) {
		case float64:
			return x, true
		case float32:
			return float64(x), true
		case json.Number:
			f, err := strconv.ParseFloat(string(x), 64)
			return f, err == nil
		}
		return float64(i), isInt
	default:
		s, ok := v.(string)
		return s, ok
	}
}

// state is everything a rejected write must leave as it was.
func state(t *Table) (rows int, version uint64, lens []int, vals []map[string]any) {
	for _, name := range t.ColumnNames() {
		lens = append(lens, t.Column(name).Len())
	}
	for i := 0; i < t.NumRows(); i++ {
		vals = append(vals, stored(t, i))
	}
	return t.NumRows(), t.DataVersion(), lens, vals
}

// TestWritePathsAgree pins the write paths to one conversion: a float32 is
// stored in a float64 column on insert as on update, and a value past the
// int32 range is refused on both, leaving the table as it was.
func TestWritePathsAgree(t *testing.T) {
	tab := writeTable()
	row := map[string]any{"i32": int64(1), "i64": 2, "f64": float32(2.5), "str": "s", "dict": "d", "fk": 1}
	if _, err := tab.Insert(row); err != nil {
		t.Fatalf("insert with a float32: %v", err)
	}
	if got := stored(tab, 0); got["f64"] != 2.5 || got["i32"] != int64(1) {
		t.Fatalf("stored %v", got)
	}
	if err := tab.Update(0, "f64", float32(4)); err != nil || stored(tab, 0)["f64"] != 4.0 {
		t.Fatalf("update with a float32: %v, stored %v", err, stored(tab, 0))
	}

	rows, version, lens, vals := state(tab)
	for _, col := range []string{"i32", "fk"} {
		over := map[string]any{"i32": int64(5), "i64": 2, "f64": 1.0, "str": "s", "dict": "d", "fk": 0}
		over[col] = int64(1 << 40)
		if _, err := tab.Insert(over); err == nil || !strings.Contains(err.Error(), "overflows int32") {
			t.Fatalf("insert of 1<<40 into %s: err = %v, want an int32 overflow", col, err)
		}
		if err := tab.Update(0, col, int64(1<<40)); err == nil || !strings.Contains(err.Error(), "overflows int32") {
			t.Fatalf("update of %s to 1<<40: err = %v, want an int32 overflow", col, err)
		}
	}
	if r, v, l, x := state(tab); r != rows || v != version || !reflect.DeepEqual(l, lens) || !reflect.DeepEqual(x, vals) {
		t.Fatalf("rejected writes changed the table: rows %d→%d, version %d→%d, lengths %v→%v, values %v→%v",
			rows, r, version, v, lens, l, vals, x)
	}
}

// countedInt is an integer read through an Int64 method, as
// encoding/json's Number is; it counts the reads.
type countedInt struct {
	v     int64
	reads *int
}

func (c countedInt) Int64() (int64, error) {
	*c.reads++
	return c.v, nil
}

// TestWriteConvertsOnce: a write converts each value once, foreign keys
// included, however many checks read it.
func TestWriteConvertsOnce(t *testing.T) {
	dim := NewTable("dim")
	dim.MustAddColumn("d", NewInt64Col([]int64{0, 1, 2}))
	tab := NewTable("w")
	tab.MustAddColumn("i32", NewInt32Col(nil))
	tab.MustAddColumn("i64", NewInt64Col(nil))
	tab.MustAddColumn("f64", NewFloat64Col(nil))
	tab.MustAddColumn("fk", NewInt32Col(nil))
	tab.MustAddFK("fk", dim)
	reads := 0
	row := make(map[string]any)
	for _, name := range tab.ColumnNames() {
		row[name] = countedInt{1, &reads}
	}
	if _, err := tab.Insert(row); err != nil {
		t.Fatal(err)
	}
	if reads != len(row) {
		t.Fatalf("Insert of %d values read them %d times, want once each", len(row), reads)
	}
	reads = 0
	if err := tab.Update(0, "fk", countedInt{2, &reads}); err != nil || reads != 1 {
		t.Fatalf("Update of a foreign key: err %v, %d reads, want 1", err, reads)
	}
}

// writeValue draws one Go value for a write from byte k: every kind the
// write paths may meet, including values just past the int32 limits and
// numbers given as text, as an append body decodes them.
func writeValue(k byte) any {
	v := int64(k >> 4)
	switch k % 14 {
	case 0:
		return int(v)
	case 1:
		return int32(v)
	case 2:
		return v
	case 3:
		return float32(v) + 0.5
	case 4:
		return float64(v) + 0.25
	case 5:
		return fmt.Sprint("s", v)
	case 6:
		return v%2 == 0
	case 7:
		return nil
	case 8:
		return int64(math.MaxInt32) + 1 + v
	case 9:
		return int64(math.MinInt32) - 1 - v
	case 10:
		return int(math.MaxInt32) - int(v)
	case 11:
		return int32(math.MinInt32) + int32(v)
	case 12:
		return json.Number(fmt.Sprint(v))
	default:
		return json.Number(fmt.Sprintf("%d.5", v))
	}
}

// FuzzTableWrite sends random Go values through Insert, Append and Update
// into every column type. Each op is one byte choosing Insert (0 mod 4),
// Append of a batch of one to three rows (2 mod 4) or Update (odd; the byte
// picks the row and column), then one value byte per column of each row. A
// write must be accepted exactly when wantStored accepts every value it
// writes (and every foreign key names a dimension row); an accepted write
// reads back as the converted values, and a rejected one leaves the table
// unchanged, however many of its rows were good.
func FuzzTableWrite(f *testing.F) {
	f.Add([]byte{0, 2, 0, 3, 5, 19, 1})                     // insert with a float32
	f.Add([]byte{0, 8, 2, 4, 5, 5, 1})                      // insert past the int32 limit
	f.Add([]byte{0, 1, 2, 4, 5, 5, 1, 1, 9, 0, 0, 0, 0, 0}) // update past the int32 limit
	f.Add([]byte{0, 1, 2, 4, 5, 5, 1, 5, 3, 3, 3, 3, 3, 3}) // update with a float32
	f.Add([]byte{0, 6, 7, 6, 7, 6, 7, 2, 3, 3, 3, 3, 3, 3})
	f.Add([]byte{0, 12, 28, 13, 5, 5, 12})                        // insert with integer and decimal text
	f.Add([]byte{0, 13, 12, 12, 5, 5, 13})                        // decimal text for integers
	f.Add([]byte{0, 2, 0, 3, 5, 5, 1, 1, 12, 13, 13, 12, 12, 12}) // update with text
	f.Add([]byte{6, 2, 0, 3, 5, 5, 1, 0, 0, 4, 5, 5, 0})          // append of two good rows
	f.Add([]byte{6, 2, 0, 3, 5, 5, 1, 0, 0, 4, 5, 5, 3})          // append whose second row has a bad key
	f.Add([]byte{10, 2, 0, 3, 5, 5, 1, 0, 0, 4, 5, 5, 0, 8, 2, 4, 5, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := writeTable()
		names := tab.ColumnNames()
		for len(data) > 0 {
			op, nrows := data[0], 1
			if op%4 == 2 {
				nrows += int(op/4) % 3
			}
			if len(data) < 1+nrows*len(names) {
				return
			}
			batch := make([]map[string]any, nrows)
			want := make([]map[string]any, nrows)
			for r := range batch {
				batch[r], want[r] = make(map[string]any), make(map[string]any)
				for i, name := range names {
					batch[r][name] = writeValue(data[1+r*len(names)+i])
				}
			}
			data = data[1+nrows*len(names):]
			accepts := func(r int, name string) bool {
				typ, _ := tab.ColumnType(name)
				w, ok := wantStored(typ, batch[r][name])
				if name == "fk" {
					ok = ok && w.(int64) >= 0 && w.(int64) < 3
				}
				want[r][name] = w
				return ok
			}
			rows, version, lens, before := state(tab)
			var ids []int
			col, ok := "", true
			var err error
			if op%2 == 0 || rows == 0 {
				for r := range batch {
					for _, name := range names {
						ok = accepts(r, name) && ok
					}
				}
				if op%4 == 2 {
					ids, err = tab.Append(batch)
				} else {
					var id int
					id, err = tab.Insert(batch[0])
					ids = []int{id}
				}
			} else {
				row := int(op/2) % rows
				col = names[int(op/2)%len(names)]
				ok = accepts(0, col)
				want[0] = map[string]any{col: want[0][col]}
				err = tab.Update(row, col, batch[0][col])
				ids = []int{row}
			}
			if (err == nil) != ok {
				t.Fatalf("write %v (column %q): err = %v, want accepted = %v", batch, col, err, ok)
			}
			if err != nil {
				if r, v, l, x := state(tab); r != rows || v != version || !reflect.DeepEqual(l, lens) || !reflect.DeepEqual(x, before) {
					t.Fatalf("rejected write %v changed the table", batch)
				}
				continue
			}
			if len(ids) != len(want) {
				t.Fatalf("write %v returned rows %v", batch, ids)
			}
			for r, w := range want {
				got := stored(tab, ids[r])
				for name, w := range w {
					if got[name] != w {
						t.Fatalf("wrote %v to row %d: column %s reads %v (%T), want %v (%T)", batch[r], ids[r], name, got[name], got[name], w, w)
					}
				}
			}
		}
	})
}
