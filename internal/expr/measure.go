package expr

import (
	"fmt"

	"astore/internal/storage"
)

// AggKind is an aggregation function.
type AggKind uint8

// Aggregation functions.
const (
	Sum AggKind = iota
	Count
	Min
	Max
	Avg
)

// String returns the SQL spelling of the aggregate.
func (k AggKind) String() string {
	switch k {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// NumExpr is a numeric expression over columns of the universal table.
type NumExpr interface{ isNumExpr() }

// Col is a column reference leaf.
type Col struct{ Name string }

// Const is a numeric literal leaf.
type Const struct{ V float64 }

// Bin is a binary arithmetic node; Op is one of '+', '-', '*', '/'.
type Bin struct {
	Op   byte
	L, R NumExpr
}

func (Col) isNumExpr()   {}
func (Const) isNumExpr() {}
func (Bin) isNumExpr()   {}

// C returns a column reference expression.
func C(name string) NumExpr { return Col{Name: name} }

// K returns a constant expression.
func K(v float64) NumExpr { return Const{V: v} }

// Add returns l + r.
func Add(l, r NumExpr) NumExpr { return Bin{Op: '+', L: l, R: r} }

// Subtract returns l - r.
func Subtract(l, r NumExpr) NumExpr { return Bin{Op: '-', L: l, R: r} }

// Mul returns l * r.
func Mul(l, r NumExpr) NumExpr { return Bin{Op: '*', L: l, R: r} }

// Div returns l / r.
func Div(l, r NumExpr) NumExpr { return Bin{Op: '/', L: l, R: r} }

// Cols returns the distinct column names referenced by e, in first-use
// order.
func Cols(e NumExpr) []string {
	var out []string
	seen := make(map[string]bool)
	var walk func(NumExpr)
	walk = func(e NumExpr) {
		switch e := e.(type) {
		case Col:
			if !seen[e.Name] {
				seen[e.Name] = true
				out = append(out, e.Name)
			}
		case Bin:
			walk(e.L)
			walk(e.R)
		}
	}
	walk(e)
	return out
}

// ExprString renders e for diagnostics.
func ExprString(e NumExpr) string {
	switch e := e.(type) {
	case Col:
		return e.Name
	case Const:
		return fmt.Sprintf("%g", e.V)
	case Bin:
		return fmt.Sprintf("(%s %c %s)", ExprString(e.L), e.Op, ExprString(e.R))
	default:
		return "?"
	}
}

// Aggregate is one aggregation of a SPJGA query.
type Aggregate struct {
	Kind AggKind
	Expr NumExpr // nil means COUNT(*)
	As   string  // result column name
}

// SumOf returns SUM(e) named as.
func SumOf(e NumExpr, as string) Aggregate { return Aggregate{Kind: Sum, Expr: e, As: as} }

// CountStar returns COUNT(*) named as.
func CountStar(as string) Aggregate { return Aggregate{Kind: Count, As: as} }

// MinOf returns MIN(e) named as.
func MinOf(e NumExpr, as string) Aggregate { return Aggregate{Kind: Min, Expr: e, As: as} }

// MaxOf returns MAX(e) named as.
func MaxOf(e NumExpr, as string) Aggregate { return Aggregate{Kind: Max, Expr: e, As: as} }

// AvgOf returns AVG(e) named as.
func AvgOf(e NumExpr, as string) Aggregate { return Aggregate{Kind: Avg, Expr: e, As: as} }

// ColAccessor returns a per-row float64 reader over a numeric column: a
// plain chunk, or an encoded one read in place — a FoR row through its
// field, an RLE row through the run that holds it.
func ColAccessor(c storage.Column) (func(int32) float64, error) {
	switch c := c.(type) {
	case *storage.FoRCol:
		return func(i int32) float64 { return float64(c.At(int(i))) }, nil
	case *storage.RLECol:
		if !c.Type().IsNumeric() {
			break
		}
		return func(i int32) float64 {
			v, _ := storage.Int64At(c, int(i))
			return float64(v)
		}, nil
	}
	var f func(int32) float64
	if vecReader[int32](c, &f) || vecReader[int64](c, &f) || vecReader[float64](c, &f) {
		return f, nil
	}
	return nil, fmt.Errorf("expr: column of type %s is not numeric", c.Type())
}

// vecReader sets *f to a per-row float64 reader over c if c is a Vec of T.
func vecReader[T int32 | int64 | float64](c storage.Column, f *func(int32) float64) bool {
	col, ok := c.(*storage.Vec[T])
	if ok {
		v := col.V
		*f = func(i int32) float64 { return float64(v[i]) }
	}
	return ok
}

// Compile lowers e to a per-row evaluator. resolve must return a float64
// accessor keyed by root row index for each referenced column (following
// AIR paths as needed); Compile itself is storage-agnostic.
func Compile(e NumExpr, resolve func(name string) (func(int32) float64, error)) (func(int32) float64, error) {
	switch e := e.(type) {
	case Col:
		return resolve(e.Name)
	case Const:
		v := e.V
		return func(int32) float64 { return v }, nil
	case Bin:
		l, err := Compile(e.L, resolve)
		if err != nil {
			return nil, err
		}
		r, err := Compile(e.R, resolve)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case '+':
			return func(i int32) float64 { return l(i) + r(i) }, nil
		case '-':
			return func(i int32) float64 { return l(i) - r(i) }, nil
		case '*':
			return func(i int32) float64 { return l(i) * r(i) }, nil
		case '/':
			return func(i int32) float64 { return l(i) / r(i) }, nil
		default:
			return nil, fmt.Errorf("expr: unknown operator %q", e.Op)
		}
	default:
		return nil, fmt.Errorf("expr: unknown expression node %T", e)
	}
}

// Form identifies a recognized vectorizable shape of a measure expression.
type Form uint8

// Recognized expression forms; FGeneric falls back to Compile.
const (
	FGeneric     Form = iota
	FCol              // a
	FMulCols          // a * b
	FSubCols          // a - b
	FMulOneMinus      // a * (1 - b)
)

// Recognized describes the outcome of Recognize.
type Recognized struct {
	Form Form
	A, B string
}

// Recognize pattern-matches e against the handful of measure shapes that
// dominate OLAP benchmarks so the scan loop can run over dense arrays
// without per-row closure calls.
func Recognize(e NumExpr) Recognized {
	switch e := e.(type) {
	case Col:
		return Recognized{Form: FCol, A: e.Name}
	case Bin:
		switch e.Op {
		case '*':
			lc, lok := e.L.(Col)
			rc, rok := e.R.(Col)
			if lok && rok {
				return Recognized{Form: FMulCols, A: lc.Name, B: rc.Name}
			}
			// a * (1 - b)
			if lok {
				if sub, ok := e.R.(Bin); ok && sub.Op == '-' {
					if k, ok := sub.L.(Const); ok && k.V == 1 {
						if bc, ok := sub.R.(Col); ok {
							return Recognized{Form: FMulOneMinus, A: lc.Name, B: bc.Name}
						}
					}
				}
			}
		case '-':
			lc, lok := e.L.(Col)
			rc, rok := e.R.(Col)
			if lok && rok {
				return Recognized{Form: FSubCols, A: lc.Name, B: rc.Name}
			}
		}
	}
	return Recognized{Form: FGeneric}
}
