// Package expr provides typed selection predicates and numeric measure
// expressions for SPJGA queries, with evaluation paths matched to A-Store's
// storage model:
//
//   - Bitmap evaluation over a whole column (used to build the predicate
//     vectors of §4.2 on dimension tables),
//   - selection-vector refinement (the vector-based column-wise scan of
//     §4.1), and
//   - per-row matchers (row-wise scan variants and AIR chain probing).
//
// String predicates on dictionary-compressed columns are evaluated on the
// dictionary first (the dictionary is just a small reference table), turning
// any string predicate — including ranges, which insertion-ordered codes do
// not preserve — into a code-mask probe.
package expr

import (
	"fmt"

	"astore/internal/storage"
)

// Op is a comparison operator.
type Op uint8

// Comparison operators.
const (
	Eq Op = iota
	Ne
	Lt
	Le
	Gt
	Ge
	Between // inclusive on both ends
	In
)

// String returns the SQL-ish spelling of the operator.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Between:
		return "between"
	case In:
		return "in"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Kind is the operand type of a predicate.
type Kind uint8

// Operand kinds.
const (
	KInt Kind = iota
	KFloat
	KStr
)

// Pred is a selection predicate over a single column of some table of the
// universal table. Column names are resolved by the engine via the join
// graph; Pred itself is independent of any table.
type Pred struct {
	Col  string
	Op   Op
	Kind Kind

	IVal, IHi int64
	IList     []int64
	FVal, FHi float64
	SVal, SHi string
	SList     []string

	// Sel is an optional selectivity estimate in (0, 1]; the engine orders
	// predicate evaluation most-selective-first. Zero means unknown.
	Sel float64
}

// IntEq returns the predicate col = v.
func IntEq(col string, v int64) Pred { return Pred{Col: col, Op: Eq, Kind: KInt, IVal: v} }

// IntNe returns the predicate col <> v.
func IntNe(col string, v int64) Pred { return Pred{Col: col, Op: Ne, Kind: KInt, IVal: v} }

// IntLt returns the predicate col < v.
func IntLt(col string, v int64) Pred { return Pred{Col: col, Op: Lt, Kind: KInt, IVal: v} }

// IntLe returns the predicate col <= v.
func IntLe(col string, v int64) Pred { return Pred{Col: col, Op: Le, Kind: KInt, IVal: v} }

// IntGt returns the predicate col > v.
func IntGt(col string, v int64) Pred { return Pred{Col: col, Op: Gt, Kind: KInt, IVal: v} }

// IntGe returns the predicate col >= v.
func IntGe(col string, v int64) Pred { return Pred{Col: col, Op: Ge, Kind: KInt, IVal: v} }

// IntBetween returns the predicate lo <= col <= hi.
func IntBetween(col string, lo, hi int64) Pred {
	return Pred{Col: col, Op: Between, Kind: KInt, IVal: lo, IHi: hi}
}

// IntIn returns the predicate col IN (vs...).
func IntIn(col string, vs ...int64) Pred { return Pred{Col: col, Op: In, Kind: KInt, IList: vs} }

// FloatLt returns the predicate col < v over float operands.
func FloatLt(col string, v float64) Pred { return Pred{Col: col, Op: Lt, Kind: KFloat, FVal: v} }

// FloatGe returns the predicate col >= v over float operands.
func FloatGe(col string, v float64) Pred { return Pred{Col: col, Op: Ge, Kind: KFloat, FVal: v} }

// FloatBetween returns the predicate lo <= col <= hi over float operands.
func FloatBetween(col string, lo, hi float64) Pred {
	return Pred{Col: col, Op: Between, Kind: KFloat, FVal: lo, FHi: hi}
}

// StrEq returns the predicate col = s.
func StrEq(col, s string) Pred { return Pred{Col: col, Op: Eq, Kind: KStr, SVal: s} }

// StrNe returns the predicate col <> s.
func StrNe(col, s string) Pred { return Pred{Col: col, Op: Ne, Kind: KStr, SVal: s} }

// StrBetween returns the predicate lo <= col <= hi (lexicographic,
// inclusive).
func StrBetween(col, lo, hi string) Pred {
	return Pred{Col: col, Op: Between, Kind: KStr, SVal: lo, SHi: hi}
}

// StrIn returns the predicate col IN (ss...).
func StrIn(col string, ss ...string) Pred { return Pred{Col: col, Op: In, Kind: KStr, SList: ss} }

// WithSel returns a copy of p carrying a selectivity estimate.
func (p Pred) WithSel(sel float64) Pred {
	p.Sel = sel
	return p
}

// String renders the predicate for diagnostics.
func (p Pred) String() string {
	switch p.Kind {
	case KInt:
		switch p.Op {
		case Between:
			return fmt.Sprintf("%s between %d and %d", p.Col, p.IVal, p.IHi)
		case In:
			return fmt.Sprintf("%s in %v", p.Col, p.IList)
		default:
			return fmt.Sprintf("%s %s %d", p.Col, p.Op, p.IVal)
		}
	case KFloat:
		switch p.Op {
		case Between:
			return fmt.Sprintf("%s between %g and %g", p.Col, p.FVal, p.FHi)
		default:
			return fmt.Sprintf("%s %s %g", p.Col, p.Op, p.FVal)
		}
	default:
		switch p.Op {
		case Between:
			return fmt.Sprintf("%s between %q and %q", p.Col, p.SVal, p.SHi)
		case In:
			return fmt.Sprintf("%s in %q", p.Col, p.SList)
		default:
			return fmt.Sprintf("%s %s %q", p.Col, p.Op, p.SVal)
		}
	}
}

// matchInt tests an integer value against the predicate's operands. The
// match methods take a pointer: Matcher's closures call them once per
// tested row, and a value receiver would copy the whole Pred each time.
func (p *Pred) matchInt(v int64) bool {
	switch p.Op {
	case Eq:
		return v == p.IVal
	case Ne:
		return v != p.IVal
	case Lt:
		return v < p.IVal
	case Le:
		return v <= p.IVal
	case Gt:
		return v > p.IVal
	case Ge:
		return v >= p.IVal
	case Between:
		return v >= p.IVal && v <= p.IHi
	case In:
		for _, x := range p.IList {
			if v == x {
				return true
			}
		}
		return false
	}
	return false
}

// matchFloat tests a float value against the predicate's operands.
func (p *Pred) matchFloat(v float64) bool {
	lo, hi := p.FVal, p.FHi
	if p.Kind == KInt {
		lo, hi = float64(p.IVal), float64(p.IHi)
	}
	switch p.Op {
	case Eq:
		return v == lo
	case Ne:
		return v != lo
	case Lt:
		return v < lo
	case Le:
		return v <= lo
	case Gt:
		return v > lo
	case Ge:
		return v >= lo
	case Between:
		return v >= lo && v <= hi
	case In:
		for _, x := range p.IList {
			if v == float64(x) {
				return true
			}
		}
		return false
	}
	return false
}

// matchStr tests a string value against the predicate's operands.
func (p *Pred) matchStr(v string) bool {
	switch p.Op {
	case Eq:
		return v == p.SVal
	case Ne:
		return v != p.SVal
	case Lt:
		return v < p.SVal
	case Le:
		return v <= p.SVal
	case Gt:
		return v > p.SVal
	case Ge:
		return v >= p.SVal
	case Between:
		return v >= p.SVal && v <= p.SHi
	case In:
		for _, x := range p.SList {
			if v == x {
				return true
			}
		}
		return false
	}
	return false
}

// DictMask evaluates a string predicate over a dictionary, returning a mask
// indexed by code. Any string predicate on a dictionary-compressed column —
// including ranges and complex matches — thus costs one pass over the
// (small) dictionary plus a mask probe per row.
func (p Pred) DictMask(d *storage.Dict) ([]bool, error) {
	if p.Kind != KStr {
		return nil, fmt.Errorf("expr: %s predicate on dictionary column %s", p.Kind, p.Col)
	}
	vals := d.Values()
	mask := make([]bool, len(vals))
	for i, s := range vals {
		mask[i] = p.matchStr(s)
	}
	return mask, nil
}

// OverlapsIntRange reports whether the predicate could match some value in
// [lo, hi] (inclusive), for zone-map pruning of integer-valued segments.
// It is conservative: true means "cannot rule the segment out".
func (p Pred) OverlapsIntRange(lo, hi int64) bool {
	switch p.Kind {
	case KStr:
		return true // string predicate on a numeric zone: cannot reason
	case KFloat:
		return p.OverlapsFloatRange(float64(lo), float64(hi))
	}
	switch p.Op {
	case Eq:
		return p.IVal >= lo && p.IVal <= hi
	case Ne:
		return !(lo == hi && lo == p.IVal)
	case Lt:
		return lo < p.IVal
	case Le:
		return lo <= p.IVal
	case Gt:
		return hi > p.IVal
	case Ge:
		return hi >= p.IVal
	case Between:
		return p.IVal <= hi && p.IHi >= lo
	case In:
		for _, x := range p.IList {
			if x >= lo && x <= hi {
				return true
			}
		}
		return false
	}
	return true
}

// OverlapsFloatRange is OverlapsIntRange over float-valued zones.
func (p Pred) OverlapsFloatRange(lo, hi float64) bool {
	if p.Kind == KStr {
		return true
	}
	pv, ph := p.FVal, p.FHi
	if p.Kind == KInt {
		pv, ph = float64(p.IVal), float64(p.IHi)
	}
	switch p.Op {
	case Eq:
		return pv >= lo && pv <= hi
	case Ne:
		return !(lo == hi && lo == pv)
	case Lt:
		return lo < pv
	case Le:
		return lo <= pv
	case Gt:
		return hi > pv
	case Ge:
		return hi >= pv
	case Between:
		return pv <= hi && ph >= lo
	case In:
		for _, x := range p.IList {
			if float64(x) >= lo && float64(x) <= hi {
				return true
			}
		}
		return false
	}
	return true
}

func (k Kind) String() string {
	switch k {
	case KInt:
		return "int"
	case KFloat:
		return "float"
	default:
		return "string"
	}
}

// int32Operands reports whether the integer operands fit an int32, so a
// comparison may run in the int32 domain of an int32 column.
func (p Pred) int32Operands() bool {
	return p.IVal == int64(int32(p.IVal)) && p.IHi == int64(int32(p.IHi))
}

// Matcher returns a per-row tester for the predicate over plain column c,
// or over a FoR chunk, whose rows it reads in place. It is the building
// block for row-wise scans and AIR chain probing.
func (p Pred) Matcher(c storage.Column) (func(row int32) bool, error) {
	switch c := c.(type) {
	case *storage.FoRCol:
		if p.Kind == KStr {
			return nil, typeErr(p, c)
		}
		if p.Kind == KFloat {
			return func(i int32) bool { return p.matchFloat(float64(c.At(int(i)))) }, nil
		}
		return func(i int32) bool { return p.matchInt(c.At(int(i))) }, nil
	case *storage.Int32Col:
		if p.Kind == KStr {
			return nil, typeErr(p, c)
		}
		v := c.V
		if p.Kind == KFloat {
			return func(i int32) bool { return p.matchFloat(float64(v[i])) }, nil
		}
		return func(i int32) bool { return p.matchInt(int64(v[i])) }, nil
	case *storage.Int64Col:
		if p.Kind == KStr {
			return nil, typeErr(p, c)
		}
		v := c.V
		if p.Kind == KFloat {
			return func(i int32) bool { return p.matchFloat(float64(v[i])) }, nil
		}
		return func(i int32) bool { return p.matchInt(v[i]) }, nil
	case *storage.Float64Col:
		if p.Kind == KStr {
			return nil, typeErr(p, c)
		}
		v := c.V
		return func(i int32) bool { return p.matchFloat(v[i]) }, nil
	case *storage.StrCol:
		if p.Kind != KStr {
			return nil, typeErr(p, c)
		}
		v := c.V
		return func(i int32) bool { return p.matchStr(v[i]) }, nil
	case *storage.DictCol:
		mask, err := p.DictMask(c.Dict)
		if err != nil {
			return nil, err
		}
		codes := c.Codes
		return func(i int32) bool { return mask[codes[i]] }, nil
	default:
		return nil, fmt.Errorf("expr: unsupported column type %T", c)
	}
}

func typeErr(p Pred, c storage.Column) error {
	return fmt.Errorf("expr: %s predicate %q on %s column", p.Kind, p.Col, c.Type())
}
