// Package storage implements the array-oriented storage model of A-Store.
//
// A relational table is stored as an array family: a set of equally long,
// completely aligned arrays, one per column. The array index is the primary
// key of the table, so a foreign-key column holds array indexes of the
// referenced table (array index reference, AIR). Joins therefore reduce to
// positional array lookups, and an entire star/snowflake schema forms a
// virtually denormalized "universal table" without any physical join.
//
// Physically every table is a list of sealed segments plus a mutable tail
// (segment.go); a table that never seals — every dimension — is all tail,
// so its columns are single contiguous arrays.
//
// The package also provides the auxiliary storage objects of A-Store:
// bitmaps (predicate vectors and deletion vectors), selection vectors,
// dictionaries (dictionary compression where the code is an AIR into the
// dictionary array), snapshots (chunk-granularity copy-on-write, the
// stand-in for the OS page-table tricks sketched in the paper), and table
// consolidation.
package storage

import "fmt"

// Type identifies the physical representation of a column.
type Type uint8

// Physical column types.
const (
	// TInt32 is a 32-bit integer column. Foreign-key (AIR) columns and
	// dictionary codes use this type.
	TInt32 Type = iota
	// TInt64 is a 64-bit integer column, used for measures.
	TInt64
	// TFloat64 is a 64-bit floating point column.
	TFloat64
	// TString is a variable-length string column. Contents live in
	// dynamically allocated space (Go string heap); the array stores
	// references, mirroring the paper's out-of-line varchar storage.
	TString
	// TDict is a dictionary-compressed string column: an Int32 code array
	// plus a shared Dict. The dictionary is itself a reference table and
	// the code is an array index reference into it.
	TDict
)

// String returns the lowercase name of the type.
func (t Type) String() string {
	switch t {
	case TInt32:
		return "int32"
	case TInt64:
		return "int64"
	case TFloat64:
		return "float64"
	case TString:
		return "string"
	case TDict:
		return "dict"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// IsNumeric reports whether columns of this type hold numbers directly.
func (t Type) IsNumeric() bool {
	return t == TInt32 || t == TInt64 || t == TFloat64
}

// width is the bytes one row of a fixed-width plain chunk of this type
// takes: 8 for int64 and float64, 4 for int32 and dictionary codes.
func (t Type) width() int {
	if t == TInt64 || t == TFloat64 {
		return 8
	}
	return 4
}
