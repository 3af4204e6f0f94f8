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

// Filterer compiles the predicate against column c into a reusable
// selection-vector refinement function, hoisting per-predicate setup —
// dictionary masks, operand conversions, evaluator dispatch — out of the
// scan loop. c is a plain chunk or an encoded one, read where it lies: an
// RLE chunk is filtered run by run, a FoR chunk field by field. The
// returned function compacts sel in place and returns the shortened vector.
// This is the vector-based column-wise scan primitive of §4.1: a tuple that
// fails one predicate is removed immediately and never evaluated again.
func (p Pred) Filterer(c storage.Column) (func(sel []int32) []int32, error) {
	// Fast paths for the most common scan shapes.
	switch col := c.(type) {
	case *storage.Int32Col:
		if p.Kind == KInt && p.int32Operands() {
			v := col.V
			switch p.Op {
			case Eq:
				w := int32(p.IVal)
				return func(sel []int32) []int32 {
					out := sel[:0]
					for _, r := range sel {
						if v[r] == w {
							out = append(out, r)
						}
					}
					return out
				}, nil
			case Between:
				lo, hi := int32(p.IVal), int32(p.IHi)
				return func(sel []int32) []int32 {
					out := sel[:0]
					for _, r := range sel {
						if x := v[r]; x >= lo && x <= hi {
							out = append(out, r)
						}
					}
					return out
				}, nil
			case Lt:
				w := int32(p.IVal)
				return func(sel []int32) []int32 {
					out := sel[:0]
					for _, r := range sel {
						if v[r] < w {
							out = append(out, r)
						}
					}
					return out
				}, nil
			}
		}
	case *storage.Int64Col:
		if p.Kind == KInt {
			v := col.V
			switch p.Op {
			case Eq:
				w := p.IVal
				return func(sel []int32) []int32 {
					out := sel[:0]
					for _, r := range sel {
						if v[r] == w {
							out = append(out, r)
						}
					}
					return out
				}, nil
			case Between:
				lo, hi := p.IVal, p.IHi
				return func(sel []int32) []int32 {
					out := sel[:0]
					for _, r := range sel {
						if x := v[r]; x >= lo && x <= hi {
							out = append(out, r)
						}
					}
					return out
				}, nil
			case Lt:
				w := p.IVal
				return func(sel []int32) []int32 {
					out := sel[:0]
					for _, r := range sel {
						if v[r] < w {
							out = append(out, r)
						}
					}
					return out
				}, nil
			}
		}
	case *storage.DictCol:
		if p.Kind == KStr {
			mask, err := p.DictMask(col.Dict)
			if err != nil {
				return nil, err
			}
			codes := col.Codes
			return func(sel []int32) []int32 {
				out := sel[:0]
				for _, r := range sel {
					if mask[codes[r]] {
						out = append(out, r)
					}
				}
				return out
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
		return rleSelFilter(col.End, pass), nil

	case *storage.FoRCol:
		if f := p.forFilterer(col); f != nil {
			return f, nil
		}
	}

	m, err := p.Matcher(c)
	if err != nil {
		return nil, err
	}
	return func(sel []int32) []int32 {
		out := sel[:0]
		for _, r := range sel {
			if m(r) {
				out = append(out, r)
			}
		}
		return out
	}, nil
}

// rleSelFilter builds a run-cursor selection filter over precomputed
// per-run verdicts. Selection vectors are ascending, so the cursor only
// moves forward; it is re-initialized on every call, making the returned
// closure safe for concurrent use across scan workers.
func rleSelFilter(end []int32, pass []bool) func(sel []int32) []int32 {
	return func(sel []int32) []int32 {
		out := sel[:0]
		ri := 0
		for _, r := range sel {
			for end[ri] <= r {
				ri++
			}
			if pass[ri] {
				out = append(out, r)
			}
		}
		return out
	}
}

// forFilterer compiles an integer comparison into the delta domain of FoR
// chunk c: the values it keeps form one range, which meets the chunk's frame
// in one range of stored deltas, the whole frame or nothing — decided here,
// once, so the scan does one unsigned compare per row or none. It returns
// nil for the other predicates (Ne, In, float operands) and for a chunk
// whose frame wraps; those test each row's value through the Matcher.
func (p Pred) forFilterer(c *storage.FoRCol) func(sel []int32) []int32 {
	if p.Kind != KInt {
		return nil
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	switch p.Op {
	case Eq:
		lo, hi = p.IVal, p.IVal
	case Between:
		lo, hi = p.IVal, p.IHi
	case Lt:
		if p.IVal == math.MinInt64 {
			return keepNone
		}
		hi = p.IVal - 1
	case Le:
		hi = p.IVal
	case Gt:
		if p.IVal == math.MaxInt64 {
			return keepNone
		}
		lo = p.IVal + 1
	case Ge:
		lo = p.IVal
	default:
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
	return func(sel []int32) []int32 { return c.FilterDelta(sel, dlo, dhi) }
}

func keepAll(sel []int32) []int32  { return sel }
func keepNone(sel []int32) []int32 { return sel[:0] }

// EstimatedSel returns the predicate's selectivity estimate, defaulting to
// 0.5 when unknown. The engine evaluates the most selective predicates
// first to maximize selection-vector shrinkage (§4.1).
func (p Pred) EstimatedSel() float64 {
	if p.Sel > 0 {
		return p.Sel
	}
	return 0.5
}
