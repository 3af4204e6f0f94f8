// Package load imports external data (CSV) into A-Store's array-family
// storage, performing the transformation that makes virtual denormalization
// possible: natural primary keys are *dropped* — the array index takes their
// place (§2: "no explicit primary key is created") — and natural foreign
// keys are rewritten to array index references by looking them up in the
// referenced table's key registry.
//
// Dimension tables must therefore be loaded before the fact tables that
// reference them. A typical star-schema load:
//
//	ld := load.NewLoader(db)
//	ld.LoadCSV(datesCSV, "date", []load.ColumnSpec{
//	    {Name: "d_datekey", Kind: load.Key},
//	    {Name: "d_year", Kind: load.Int32},
//	})
//	ld.LoadCSV(salesCSV, "sales", []load.ColumnSpec{
//	    {Name: "lo_orderdate", Kind: load.FK, Ref: "date"},
//	    {Name: "lo_revenue", Kind: load.Int64},
//	})
package load

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"astore/internal/storage"
)

// Kind classifies how a CSV column is stored.
type Kind uint8

// Column kinds.
const (
	// Int32 stores a 32-bit integer column.
	Int32 Kind = iota
	// Int64 stores a 64-bit integer column.
	Int64
	// Float64 stores a floating point column.
	Float64
	// String stores an out-of-line string column.
	String
	// Dict stores a dictionary-compressed string column.
	Dict
	// Key registers the column as the table's natural primary key for
	// later FK resolution and does NOT store it: the array index is the
	// primary key.
	Key
	// FK resolves the column's values against the referenced table's
	// natural keys and stores the resulting array indexes (AIR).
	FK
	// Skip ignores the column.
	Skip
)

// ColumnSpec describes one CSV column, positionally.
type ColumnSpec struct {
	// Name is the stored column name (ignored for Key and Skip).
	Name string
	// Kind selects storage (or Key/FK/Skip semantics).
	Kind Kind
	// Ref names the referenced table for FK columns; it must have been
	// loaded with a Key column already.
	Ref string
	// SharedDict, when non-nil, makes a Dict column use (and extend) this
	// dictionary instead of a private one, so multiple tables share codes.
	SharedDict *storage.Dict
}

// Loader imports tables into a database, maintaining the natural-key
// registries used to rewrite foreign keys into array indexes.
type Loader struct {
	db   *storage.Database
	keys map[string]map[string]int32
}

// NewLoader returns a loader that registers loaded tables into db.
func NewLoader(db *storage.Database) *Loader {
	return &Loader{db: db, keys: make(map[string]map[string]int32)}
}

// Keys returns the natural-key registry of a loaded table (key value, in
// its raw CSV string form, to array index), or nil.
func (l *Loader) Keys(table string) map[string]int32 { return l.keys[table] }

// LoadCSV reads comma-separated rows (no header unless skipHeader) and
// builds a table per specs. Key columns register the natural key; FK
// columns are rewritten to array indexes of their referenced tables.
func (l *Loader) LoadCSV(r io.Reader, table string, specs []ColumnSpec, skipHeader bool) (*storage.Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = len(specs)

	// Column builders.
	type builder struct {
		spec ColumnSpec
		i32  []int32
		i64  []int64
		f64  []float64
		str  []string
		dict *storage.DictCol
		refK map[string]int32
	}
	builders := make([]*builder, len(specs))
	keyIdx := -1
	for i, sp := range specs {
		b := &builder{spec: sp}
		switch sp.Kind {
		case Dict:
			d := sp.SharedDict
			if d == nil {
				d = storage.NewDict()
			}
			b.dict = storage.NewDictCol(d)
		case Key:
			if keyIdx >= 0 {
				return nil, fmt.Errorf("load: table %s: multiple Key columns", table)
			}
			keyIdx = i
		case FK:
			refKeys := l.keys[sp.Ref]
			if refKeys == nil {
				return nil, fmt.Errorf("load: table %s: FK column %s references %q, which has no loaded Key column",
					table, sp.Name, sp.Ref)
			}
			b.refK = refKeys
		}
		builders[i] = b
	}

	keyMap := make(map[string]int32)
	row := 0
	if skipHeader {
		if _, err := cr.Read(); err != nil && err != io.EOF {
			return nil, fmt.Errorf("load: table %s: header: %w", table, err)
		}
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("load: table %s row %d: %w", table, row, err)
		}
		for i, b := range builders {
			field := rec[i]
			switch b.spec.Kind {
			case Int32:
				v, err := strconv.ParseInt(field, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("load: %s.%s row %d: %w", table, b.spec.Name, row, err)
				}
				b.i32 = append(b.i32, int32(v))
			case Int64:
				v, err := strconv.ParseInt(field, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("load: %s.%s row %d: %w", table, b.spec.Name, row, err)
				}
				b.i64 = append(b.i64, v)
			case Float64:
				v, err := strconv.ParseFloat(field, 64)
				if err != nil {
					return nil, fmt.Errorf("load: %s.%s row %d: %w", table, b.spec.Name, row, err)
				}
				b.f64 = append(b.f64, v)
			case String:
				b.str = append(b.str, field)
			case Dict:
				b.dict.Append(field)
			case Key:
				if _, dup := keyMap[field]; dup {
					return nil, fmt.Errorf("load: table %s: duplicate key %q at row %d", table, field, row)
				}
				keyMap[field] = int32(row)
			case FK:
				pos, ok := b.refK[field]
				if !ok {
					return nil, fmt.Errorf("load: %s.%s row %d: key %q not found in %s",
						table, b.spec.Name, row, field, b.spec.Ref)
				}
				b.i32 = append(b.i32, pos)
			case Skip:
				// ignored
			default:
				return nil, fmt.Errorf("load: table %s: unknown column kind %d", table, b.spec.Kind)
			}
		}
		row++
	}

	t := storage.NewTable(table)
	for _, b := range builders {
		switch b.spec.Kind {
		case Int32:
			t.MustAddColumn(b.spec.Name, storage.NewInt32Col(b.i32))
		case Int64:
			t.MustAddColumn(b.spec.Name, storage.NewInt64Col(b.i64))
		case Float64:
			t.MustAddColumn(b.spec.Name, storage.NewFloat64Col(b.f64))
		case String:
			t.MustAddColumn(b.spec.Name, storage.NewStrCol(b.str))
		case Dict:
			t.MustAddColumn(b.spec.Name, b.dict)
		case FK:
			t.MustAddColumn(b.spec.Name, storage.NewInt32Col(b.i32))
		}
	}
	// Tables with only Key/Skip columns still carry rows; AddColumn fixed
	// the count otherwise. Wire FK edges now that columns exist.
	for _, b := range builders {
		if b.spec.Kind == FK {
			ref := l.db.Table(b.spec.Ref)
			if ref == nil {
				return nil, fmt.Errorf("load: table %s: referenced table %q not in database", table, b.spec.Ref)
			}
			if err := t.AddFK(b.spec.Name, ref); err != nil {
				return nil, err
			}
		}
	}
	if err := l.db.Add(t); err != nil {
		return nil, err
	}
	if keyIdx >= 0 {
		l.keys[table] = keyMap
	}
	return t, nil
}
