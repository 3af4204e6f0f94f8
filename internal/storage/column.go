package storage

import "fmt"

// Column is one array of an array family. All columns of a table have equal
// length and are completely aligned: the i-th elements across the family
// constitute tuple i, and the array index i is the tuple's primary key.
//
// Concrete implementations expose their backing slice directly (for example
// Int32Col.V) so that scan kernels can iterate dense memory without
// indirection; the interface methods serve generic code paths such as
// row-wise execution, consolidation, and denormalization.
type Column interface {
	// Len returns the number of elements.
	Len() int
	// Type returns the physical type.
	Type() Type
	// AppendFrom appends element i of src, which must have the same
	// concrete type (and, for DictCol, the same dictionary).
	AppendFrom(src Column, i int)
	// Move copies element src to position dst (used by consolidation).
	Move(dst, src int)
	// Truncate shortens the column to n elements.
	Truncate(n int)
	// Clone returns a deep copy of the column's array. Dictionaries are
	// shared, not copied, because codes are stable.
	Clone() Column
}

// Int32Col is a 32-bit integer column. Foreign keys (AIRs) and dictionary
// codes are stored as Int32Col.
type Int32Col struct{ V []int32 }

// NewInt32Col returns an Int32Col backed by v.
func NewInt32Col(v []int32) *Int32Col { return &Int32Col{V: v} }

// Len implements Column.
func (c *Int32Col) Len() int { return len(c.V) }

// Type implements Column.
func (c *Int32Col) Type() Type { return TInt32 }

// AppendFrom implements Column.
func (c *Int32Col) AppendFrom(src Column, i int) { c.V = append(c.V, src.(*Int32Col).V[i]) }

// Move implements Column.
func (c *Int32Col) Move(dst, src int) { c.V[dst] = c.V[src] }

// Truncate implements Column.
func (c *Int32Col) Truncate(n int) { c.V = c.V[:n] }

// Clone implements Column.
func (c *Int32Col) Clone() Column {
	v := make([]int32, len(c.V))
	copy(v, c.V)
	return &Int32Col{V: v}
}

// Int64Col is a 64-bit integer column, typically a measure.
type Int64Col struct{ V []int64 }

// NewInt64Col returns an Int64Col backed by v.
func NewInt64Col(v []int64) *Int64Col { return &Int64Col{V: v} }

// Len implements Column.
func (c *Int64Col) Len() int { return len(c.V) }

// Type implements Column.
func (c *Int64Col) Type() Type { return TInt64 }

// AppendFrom implements Column.
func (c *Int64Col) AppendFrom(src Column, i int) { c.V = append(c.V, src.(*Int64Col).V[i]) }

// Move implements Column.
func (c *Int64Col) Move(dst, src int) { c.V[dst] = c.V[src] }

// Truncate implements Column.
func (c *Int64Col) Truncate(n int) { c.V = c.V[:n] }

// Clone implements Column.
func (c *Int64Col) Clone() Column {
	v := make([]int64, len(c.V))
	copy(v, c.V)
	return &Int64Col{V: v}
}

// Float64Col is a 64-bit floating point column.
type Float64Col struct{ V []float64 }

// NewFloat64Col returns a Float64Col backed by v.
func NewFloat64Col(v []float64) *Float64Col { return &Float64Col{V: v} }

// Len implements Column.
func (c *Float64Col) Len() int { return len(c.V) }

// Type implements Column.
func (c *Float64Col) Type() Type { return TFloat64 }

// AppendFrom implements Column.
func (c *Float64Col) AppendFrom(src Column, i int) { c.V = append(c.V, src.(*Float64Col).V[i]) }

// Move implements Column.
func (c *Float64Col) Move(dst, src int) { c.V[dst] = c.V[src] }

// Truncate implements Column.
func (c *Float64Col) Truncate(n int) { c.V = c.V[:n] }

// Clone implements Column.
func (c *Float64Col) Clone() Column {
	v := make([]float64, len(c.V))
	copy(v, c.V)
	return &Float64Col{V: v}
}

// StrCol is a variable-length string column. Contents live in dynamically
// allocated space and the array stores references to them, mirroring the
// paper's out-of-line varchar storage; this is also what makes in-place
// updates of variable-length values possible.
type StrCol struct{ V []string }

// NewStrCol returns a StrCol backed by v.
func NewStrCol(v []string) *StrCol { return &StrCol{V: v} }

// Len implements Column.
func (c *StrCol) Len() int { return len(c.V) }

// Type implements Column.
func (c *StrCol) Type() Type { return TString }

// AppendFrom implements Column.
func (c *StrCol) AppendFrom(src Column, i int) { c.V = append(c.V, src.(*StrCol).V[i]) }

// Move implements Column.
func (c *StrCol) Move(dst, src int) { c.V[dst] = c.V[src] }

// Truncate implements Column.
func (c *StrCol) Truncate(n int) { c.V = c.V[:n] }

// Clone implements Column.
func (c *StrCol) Clone() Column {
	v := make([]string, len(c.V))
	copy(v, c.V)
	return &StrCol{V: v}
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

// AppendFrom implements Column. The source must share c's dictionary; codes
// are stable, so no re-encoding is needed.
func (c *DictCol) AppendFrom(src Column, i int) {
	s := src.(*DictCol)
	if s.Dict != c.Dict {
		panic("storage: DictCol.AppendFrom across different dictionaries")
	}
	c.Codes = append(c.Codes, s.Codes[i])
}

// Move implements Column.
func (c *DictCol) Move(dst, src int) { c.Codes[dst] = c.Codes[src] }

// Truncate implements Column.
func (c *DictCol) Truncate(n int) { c.Codes = c.Codes[:n] }

// Clone implements Column. The dictionary is shared.
func (c *DictCol) Clone() Column {
	v := make([]int32, len(c.Codes))
	copy(v, c.Codes)
	return &DictCol{Codes: v, Dict: c.Dict}
}

// Append appends s, interning it into the shared dictionary.
func (c *DictCol) Append(s string) { c.Codes = append(c.Codes, c.Dict.Intern(s)) }

// Value returns the decompressed string at row i.
func (c *DictCol) Value(i int) string { return c.Dict.Value(c.Codes[i]) }

// Int64At returns the numeric value at row i of a numeric column.
// For DictCol it returns the code. ok is false for TString.
func Int64At(c Column, i int) (v int64, ok bool) {
	switch c := c.(type) {
	case *Int32Col:
		return int64(c.V[i]), true
	case *Int64Col:
		return c.V[i], true
	case *Float64Col:
		return int64(c.V[i]), true
	case *DictCol:
		return int64(c.Codes[i]), true
	case *RLECol:
		return Int64At(c.Vals, FindRun(c.End, i))
	case *FoRCol:
		return c.At(i), true
	default:
		return 0, false
	}
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

// setValue stores an untyped value at row i. Used by the in-place update
// path; the value must match the column's type.
func setValue(c Column, i int, v any) error {
	switch c := c.(type) {
	case *Int32Col:
		x, err := toInt64(v)
		if err != nil {
			return err
		}
		c.V[i] = int32(x)
	case *Int64Col:
		x, err := toInt64(v)
		if err != nil {
			return err
		}
		c.V[i] = x
	case *Float64Col:
		switch x := v.(type) {
		case float64:
			c.V[i] = x
		case float32:
			c.V[i] = float64(x)
		case int:
			c.V[i] = float64(x)
		case int64:
			c.V[i] = float64(x)
		default:
			return fmt.Errorf("storage: cannot store %T in float64 column", v)
		}
	case *StrCol:
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("storage: cannot store %T in string column", v)
		}
		c.V[i] = s
	case *DictCol:
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("storage: cannot store %T in dict column", v)
		}
		c.Codes[i] = c.Dict.Intern(s)
	default:
		return fmt.Errorf("storage: unknown column type %T", c)
	}
	return nil
}

// appendValue appends an untyped value. The value must match the column type.
func appendValue(c Column, v any) error {
	switch c := c.(type) {
	case *Int32Col:
		x, err := toInt64(v)
		if err != nil {
			return err
		}
		c.V = append(c.V, int32(x))
	case *Int64Col:
		x, err := toInt64(v)
		if err != nil {
			return err
		}
		c.V = append(c.V, x)
	case *Float64Col:
		switch x := v.(type) {
		case float64:
			c.V = append(c.V, x)
		case int:
			c.V = append(c.V, float64(x))
		case int64:
			c.V = append(c.V, float64(x))
		default:
			return fmt.Errorf("storage: cannot append %T to float64 column", v)
		}
	case *StrCol:
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("storage: cannot append %T to string column", v)
		}
		c.V = append(c.V, s)
	case *DictCol:
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("storage: cannot append %T to dict column", v)
		}
		c.Append(s)
	default:
		return fmt.Errorf("storage: unknown column type %T", c)
	}
	return nil
}

func toInt64(v any) (int64, error) {
	switch x := v.(type) {
	case int:
		return int64(x), nil
	case int32:
		return int64(x), nil
	case int64:
		return x, nil
	default:
		return 0, fmt.Errorf("storage: cannot convert %T to integer", v)
	}
}
