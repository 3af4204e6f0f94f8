package expr

import (
	"fmt"
	"math"

	"astore/internal/storage"
)

// Bitmap evaluates the predicate over the entire column and sets out's bit i
// for every matching row i. out must have length c.Len(); previously set
// bits are cleared. This is the predicate-vector construction primitive of
// §4.2 (run against dimension tables, whose bit vectors then fit in cache).
func (p Pred) Bitmap(c storage.Column, out *storage.Bitmap) error {
	if out.Len() != c.Len() {
		return fmt.Errorf("expr: bitmap length %d != column length %d", out.Len(), c.Len())
	}
	out.Reset()

	// Fast paths over dense arrays.
	switch col := c.(type) {
	case *storage.Int32Col:
		if p.Kind == KStr {
			return typeErr(p, c)
		}
		if p.Kind == KInt && p.int32Operands() {
			switch p.Op {
			case Eq:
				v := int32(p.IVal)
				for i, x := range col.V {
					if x == v {
						out.Set(i)
					}
				}
				return nil
			case Between:
				lo, hi := int32(p.IVal), int32(p.IHi)
				for i, x := range col.V {
					if x >= lo && x <= hi {
						out.Set(i)
					}
				}
				return nil
			}
		}
	case *storage.Int64Col:
		if p.Kind == KStr {
			return typeErr(p, c)
		}
		if p.Kind == KInt {
			switch p.Op {
			case Eq:
				for i, x := range col.V {
					if x == p.IVal {
						out.Set(i)
					}
				}
				return nil
			case Between:
				for i, x := range col.V {
					if x >= p.IVal && x <= p.IHi {
						out.Set(i)
					}
				}
				return nil
			}
		}
	case *storage.DictCol:
		mask, err := p.DictMask(col.Dict)
		if err != nil {
			return err
		}
		for i, code := range col.Codes {
			if mask[code] {
				out.Set(i)
			}
		}
		return nil
	}

	m, err := p.Matcher(c)
	if err != nil {
		return err
	}
	n := c.Len()
	for i := 0; i < n; i++ {
		if m(int32(i)) {
			out.Set(i)
		}
	}
	return nil
}

// Filter is a compiled selection-vector refinement: it writes to dst the
// rows of the ascending selection vector sel that pass, in order, and
// returns them. dst must have room for len(sel) rows and may alias sel; sel
// is only read, so a filter can take its input from an array it must not
// write. Every filter compacts without a branch: it stores each row and
// advances by its 0/1 verdict.
type Filter func(dst, sel []int32) []int32

// Filterer compiles the predicate against column c into a reusable Filter,
// hoisting per-predicate setup — dictionary masks, operand conversions,
// evaluator dispatch — out of the scan loop. c is a plain chunk or an
// encoded one, read where it lies: an RLE chunk is filtered run by run, a
// FoR chunk field by field. This is the vector-based column-wise scan
// primitive of §4.1: a tuple that fails one predicate is removed
// immediately and never evaluated again.
func (p Pred) Filterer(c storage.Column) (Filter, error) {
	// Fast paths for the most common scan shapes.
	if lo, hi, ok := p.intRange(); ok {
		if f := inRange[int32](c, lo, hi); f != nil {
			return f, nil
		}
		if f := inRange[int64](c, lo, hi); f != nil {
			return f, nil
		}
	}
	switch col := c.(type) {
	case *storage.DictCol:
		if p.Kind == KStr {
			mask, err := p.DictMask(col.Dict)
			if err != nil {
				return nil, err
			}
			codes := col.Codes
			return func(dst, sel []int32) []int32 {
				out, n := dst[:len(sel)], 0
				for _, r := range sel {
					out[n] = r
					n += storage.Bit(mask[codes[r]])
				}
				return out[:n]
			}, nil
		}

	// Run-at-a-time kernel for RLE chunks: the plain matcher runs once per
	// run, over the run values, and the scan walks the (ascending)
	// selection vector with a run cursor — no per-row value access at all.
	case *storage.RLECol:
		m, err := p.Matcher(col.Vals)
		if err != nil {
			return nil, err
		}
		pass := make([]bool, len(col.End))
		for ri := range pass {
			pass[ri] = m(int32(ri))
		}
		return func(dst, sel []int32) []int32 { return storage.KeepRuns(dst, sel, col.End, pass) }, nil

	case *storage.FoRCol:
		if f := p.forFilterer(col); f != nil {
			return f, nil
		}
	}

	m, err := p.Matcher(c)
	if err != nil {
		return nil, err
	}
	return func(dst, sel []int32) []int32 {
		out, n := dst[:len(sel)], 0
		for _, r := range sel {
			out[n] = r
			n += storage.Bit(m(r))
		}
		return out[:n]
	}, nil
}

// intRange returns the values an integer comparison keeps as one inclusive
// range, lo > hi when it keeps none. ok is false for the other predicates
// (Ne, In, float and string operands).
func (p Pred) intRange() (lo, hi int64, ok bool) {
	if p.Kind != KInt {
		return 0, 0, false
	}
	lo, hi = math.MinInt64, math.MaxInt64
	switch p.Op {
	case Eq:
		lo, hi = p.IVal, p.IVal
	case Between:
		lo, hi = p.IVal, p.IHi
	case Lt:
		if p.IVal == math.MinInt64 {
			return 1, 0, true
		}
		hi = p.IVal - 1
	case Le:
		hi = p.IVal
	case Gt:
		if p.IVal == math.MaxInt64 {
			return 1, 0, true
		}
		lo = p.IVal + 1
	case Ge:
		lo = p.IVal
	default:
		return 0, 0, false
	}
	return lo, hi, true
}

// inRange filters plain integer column c by the inclusive range [lo, hi]
// with one unsigned compare per row: x − lo, taken modulo 2^64, is at most
// hi − lo exactly when lo <= x <= hi. It returns nil when c is not a Vec of
// T.
func inRange[T int32 | int64](c storage.Column, lo, hi int64) Filter {
	col, ok := c.(*storage.Vec[T])
	switch {
	case !ok:
		return nil
	case lo > hi:
		return keepNone
	}
	v := col.V
	base, span := uint64(lo), uint64(hi)-uint64(lo)
	return func(dst, sel []int32) []int32 {
		out, n := dst[:len(sel)], 0
		for _, r := range sel {
			out[n] = r
			n += storage.Bit(uint64(v[r])-base <= span)
		}
		return out[:n]
	}
}

// forFilterer compiles an integer comparison into the delta domain of FoR
// chunk c: the values it keeps form one range, which meets the chunk's frame
// in one range of stored deltas, the whole frame or nothing — decided here,
// once, so the scan does one unsigned compare per row or none. It returns
// nil for the other predicates (Ne, In, float operands) and for a chunk
// whose frame wraps; those test each row's value through the Matcher.
func (p Pred) forFilterer(c *storage.FoRCol) Filter {
	lo, hi, ok := p.intRange()
	if !ok {
		return nil
	}
	base, top, ok := c.Frame()
	if !ok {
		return nil
	}
	lo, hi = max(lo, base), min(hi, top)
	switch {
	case lo > hi:
		return keepNone
	case lo == base && hi == top:
		return keepAll
	}
	dlo, dhi := uint64(lo)-uint64(base), uint64(hi)-uint64(base)
	return func(dst, sel []int32) []int32 { return c.FilterDelta(dst, sel, dlo, dhi) }
}

func keepAll(dst, sel []int32) []int32 { return append(dst[:0], sel...) }
func keepNone(dst, _ []int32) []int32  { return dst[:0] }

// EstimatedSel returns the predicate's selectivity estimate, defaulting to
// 0.5 when unknown. The engine evaluates the most selective predicates
// first to maximize selection-vector shrinkage (§4.1).
func (p Pred) EstimatedSel() float64 {
	if p.Sel > 0 {
		return p.Sel
	}
	return 0.5
}
