package storage

import (
	"bufio"
	"fmt"
)

// Column is one array of an array family. All columns of a table have equal
// length and are completely aligned: the i-th elements across the family
// constitute tuple i, and the array index i is the tuple's primary key.
//
// A column is a plain chunk — a Vec (Int32Col, Int64Col, Float64Col,
// StrCol) or a DictCol — or, in a sealed segment, an encoded RLECol or
// FoRCol (encoding.go). Scan kernels type-switch to the concrete type and
// iterate its backing slice (Vec.V, DictCol.Codes) without indirection;
// the interface carries only what generic code asks of every chunk.
type Column interface {
	// Len returns the number of elements.
	Len() int
	// Type returns the physical type.
	Type() Type
	// Clone returns a deep copy of the column's array. Dictionaries are
	// shared, not copied, because codes are stable.
	Clone() Column
}

// Elem is the element type of a plain column.
type Elem interface {
	int32 | int64 | float64 | string
}

// Vec is a plain column: one flat array of T. Every operation on it is one
// generic body; only the physical type (elemType), the value conversion of
// the write paths (convert) and the numeric reads (int64At, cover) tell the
// element types apart.
type Vec[T Elem] struct{ V []T }

type (
	// Int32Col is a 32-bit integer column. Foreign keys (AIRs) and
	// dictionary codes are stored as Int32Col.
	Int32Col = Vec[int32]
	// Int64Col is a 64-bit integer column, typically a measure.
	Int64Col = Vec[int64]
	// Float64Col is a 64-bit floating point column.
	Float64Col = Vec[float64]
	// StrCol is a variable-length string column. Contents live in
	// dynamically allocated space and the array stores references to them,
	// mirroring the paper's out-of-line varchar storage; this is also what
	// makes in-place updates of variable-length values possible.
	StrCol = Vec[string]
)

// NewInt32Col returns an Int32Col backed by v.
func NewInt32Col(v []int32) *Int32Col { return &Int32Col{V: v} }

// NewInt64Col returns an Int64Col backed by v.
func NewInt64Col(v []int64) *Int64Col { return &Int64Col{V: v} }

// NewFloat64Col returns a Float64Col backed by v.
func NewFloat64Col(v []float64) *Float64Col { return &Float64Col{V: v} }

// NewStrCol returns a StrCol backed by v.
func NewStrCol(v []string) *StrCol { return &StrCol{V: v} }

// Len implements Column.
func (c *Vec[T]) Len() int { return len(c.V) }

// Type implements Column.
func (c *Vec[T]) Type() Type { return elemType[T]() }

// Clone implements Column.
func (c *Vec[T]) Clone() Column { return c.grow(len(c.V)) }

// elemType is the physical type of a Vec of T.
func elemType[T Elem]() Type {
	switch any(*new(T)).(type) {
	case int32:
		return TInt32
	case int64:
		return TInt64
	case float64:
		return TFloat64
	}
	return TString
}

// DictCol is a dictionary-compressed string column: a code array plus a
// shared dictionary. The code is an array index reference into the
// dictionary array, so decompression is a positional lookup and the
// dictionary behaves exactly like a small reference table.
type DictCol struct {
	Codes []int32
	Dict  *Dict
}

// NewDictCol returns an empty DictCol over dict.
func NewDictCol(dict *Dict) *DictCol { return &DictCol{Dict: dict} }

// NewDictColFrom dictionary-compresses vals into a fresh dictionary.
func NewDictColFrom(vals []string) *DictCol {
	d := NewDict()
	codes := make([]int32, len(vals))
	for i, s := range vals {
		codes[i] = d.Intern(s)
	}
	return &DictCol{Codes: codes, Dict: d}
}

// Len implements Column.
func (c *DictCol) Len() int { return len(c.Codes) }

// Type implements Column.
func (c *DictCol) Type() Type { return TDict }

// Clone implements Column. The dictionary is shared.
func (c *DictCol) Clone() Column { return c.grow(len(c.Codes)) }

// Append appends s, interning it into the shared dictionary.
func (c *DictCol) Append(s string) { c.Codes = append(c.Codes, c.Dict.Intern(s)) }

// Value returns the decompressed string at row i.
func (c *DictCol) Value(i int) string { return c.Dict.Value(c.Codes[i]) }

// plainChunk is what every plain chunk — a Vec, or a DictCol, whose array
// is codes into a shared dictionary — does beyond Column: the copies that
// sealing, snapshots and compaction make, the reads of zones and
// persistence, and the writes of Insert and Update. Vec implements each
// once for every element type; DictCol mirrors them over its codes.
type plainChunk interface {
	Column
	// grow returns a deep copy with room for capacity rows.
	grow(capacity int) Column
	// gather returns a fresh chunk with row i = row perm[i] of c.
	gather(perm []int32) Column
	// appendRange appends rows [lo, hi) of src, a chunk of c's type.
	appendRange(src Column, lo, hi int)
	// capped returns a header copy whose capacity is its length, so
	// appends to c never show through it.
	capped() Column
	// int64At is Int64At at row i.
	int64At(i int) (int64, bool)
	// cover is Zone.cover over rows [lo, hi). It takes and returns the zone
	// by value, so a caller's zone does not escape through the interface.
	cover(z Zone, lo, hi int) (Zone, bool)
	// writeLE writes the first n rows of a fixed-width chunk as
	// little-endian words, and readLE reads n rows so written, replacing
	// the chunk's array.
	writeLE(w *bufio.Writer, n int) error
	readLE(d *imageReader, n int)
	// check reports whether v converts to the column's stored value; set
	// stores the converted v at row i and push appends it. The three share
	// one conversion, so what check accepts is exactly what set and push
	// store.
	check(v any) error
	set(i int, v any) error
	push(v any) error
}

func (c *Vec[T]) grow(capacity int) Column { return &Vec[T]{V: grown(c.V, capacity)} }

func (c *Vec[T]) gather(perm []int32) Column { return &Vec[T]{V: gather(c.V, perm)} }

func (c *Vec[T]) appendRange(src Column, lo, hi int) {
	c.V = append(c.V, src.(*Vec[T]).V[lo:hi]...)
}

func (c *Vec[T]) capped() Column { return &Vec[T]{V: c.V[:len(c.V):len(c.V)]} }

func (c *Vec[T]) int64At(i int) (int64, bool) {
	switch x := any(c.V[i]).(type) {
	case int32:
		return int64(x), true
	case int64:
		return x, true
	case float64:
		return int64(x), true
	}
	return 0, false
}

func (c *Vec[T]) cover(z Zone, lo, hi int) (Zone, bool) {
	switch v := any(c.V[lo:hi]).(type) {
	case []int32:
		widenInts(&z, v)
	case []int64:
		widenInts(&z, v)
	case []float64:
		for _, x := range v {
			z.widenFloat(x)
		}
	default:
		return z, false // strings are not summarized
	}
	return z, true
}

func (c *Vec[T]) writeLE(w *bufio.Writer, n int) error { return writeLE(w, c.V[:n]) }

func (c *Vec[T]) readLE(d *imageReader, n int) { c.V = readLE[T](d, n) }

func (c *Vec[T]) check(v any) error {
	_, err := convert[T](v)
	return err
}

func (c *Vec[T]) set(i int, v any) error {
	x, err := convert[T](v)
	if err == nil {
		c.V[i] = x
	}
	return err
}

func (c *Vec[T]) push(v any) error {
	x, err := convert[T](v)
	if err == nil {
		c.V = append(c.V, x)
	}
	return err
}

func (c *DictCol) grow(capacity int) Column {
	return &DictCol{Codes: grown(c.Codes, capacity), Dict: c.Dict}
}

func (c *DictCol) gather(perm []int32) Column {
	return &DictCol{Codes: gather(c.Codes, perm), Dict: c.Dict}
}

func (c *DictCol) appendRange(src Column, lo, hi int) {
	c.Codes = append(c.Codes, src.(*DictCol).Codes[lo:hi]...)
}

func (c *DictCol) capped() Column {
	return &DictCol{Codes: c.Codes[:len(c.Codes):len(c.Codes)], Dict: c.Dict}
}

func (c *DictCol) int64At(i int) (int64, bool) { return int64(c.Codes[i]), true }

func (c *DictCol) cover(z Zone, lo, hi int) (Zone, bool) {
	widenInts(&z, c.Codes[lo:hi])
	return z, true
}

func (c *DictCol) writeLE(w *bufio.Writer, n int) error { return writeLE(w, c.Codes[:n]) }

func (c *DictCol) readLE(d *imageReader, n int) { c.Codes = readLE[int32](d, n) }

func (c *DictCol) check(v any) error {
	_, err := convert[string](v)
	return err
}

func (c *DictCol) set(i int, v any) error {
	s, err := convert[string](v)
	if err == nil {
		c.Codes[i] = c.Dict.Intern(s)
	}
	return err
}

func (c *DictCol) push(v any) error {
	s, err := convert[string](v)
	if err == nil {
		c.Append(s)
	}
	return err
}

// grown returns a copy of v with room for capacity elements.
func grown[T any](v []T, capacity int) []T {
	return append(make([]T, 0, max(capacity, len(v))), v...)
}

// gather returns out with out[i] = v[perm[i]].
func gather[T any](v []T, perm []int32) []T {
	out := make([]T, len(perm))
	for i, p := range perm {
		out[i] = v[p]
	}
	return out
}

// widenInts extends z over integer values.
func widenInts[T int32 | int64](z *Zone, v []T) {
	for _, x := range v {
		z.widenInt(int64(x))
	}
}

// convert turns an untyped value into the T a column stores, or returns an
// error. It is the one value conversion of the write paths — Insert's
// check and its writes, Update, the foreign-key check, and through Insert
// every append body — so what is accepted is exactly what is stored. Go
// integers convert to integer and float columns (an int32 column refuses
// values outside its range), Go floats only to float columns, strings only
// to string and dictionary columns. A decimal number given as text, read
// through Int64 and Float64 methods as encoding/json's Number has them,
// converts as its value would: to integer columns if it is an integer, to
// float columns always.
func convert[T Elem](v any) (out T, err error) {
	i, ok := toInt64(v)
	want := "an integer"
	switch p := any(&out).(type) {
	case *int32:
		if *p = int32(i); ok && int64(*p) != i {
			return out, fmt.Errorf("%d overflows int32", i)
		}
	case *int64:
		*p = i
	case *float64:
		want = "a number"
		switch x := v.(type) {
		case float64:
			*p, ok = x, true
		case float32:
			*p, ok = float64(x), true
		case interface{ Float64() (float64, error) }:
			*p, err = x.Float64()
			ok = err == nil
		default:
			*p = float64(i)
		}
	case *string:
		want = "a string"
		*p, ok = v.(string)
	}
	if !ok {
		return out, fmt.Errorf("wants %s, got %T %v", want, v, v)
	}
	return out, nil
}

// toInt64 returns v as an int64 if it is a Go integer of at most 64 bits
// that the write paths accept — int, int32 or int64 — or a number given as
// text whose Int64 method reads one.
func toInt64(v any) (int64, bool) {
	switch x := v.(type) {
	case int:
		return int64(x), true
	case int32:
		return int64(x), true
	case int64:
		return x, true
	case interface{ Int64() (int64, error) }:
		i, err := x.Int64()
		return i, err == nil
	}
	return 0, false
}

// Int64At returns the numeric value at row i of a numeric column.
// For DictCol it returns the code. ok is false for TString.
func Int64At(c Column, i int) (v int64, ok bool) {
	switch c := c.(type) {
	case *RLECol:
		return Int64At(c.Vals, FindRun(c.End, i))
	case *FoRCol:
		return c.At(i), true
	case plainChunk:
		return c.int64At(i)
	}
	return 0, false
}

// StringAt returns the string value at row i of a TString or TDict column.
func StringAt(c Column, i int) (s string, ok bool) {
	switch c := c.(type) {
	case *StrCol:
		return c.V[i], true
	case *DictCol:
		return c.Value(i), true
	case *RLECol:
		return StringAt(c.Vals, FindRun(c.End, i))
	default:
		return "", false
	}
}
