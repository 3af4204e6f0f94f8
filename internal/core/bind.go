package core

import (
	"fmt"

	"astore/internal/expr"
	"astore/internal/storage"
)

// segState is the per-segment binding of a plan's root-resident arrays:
// filter closures, group-id sources, and aggregate inputs, all addressed by
// segment-local row indexes. A binding lives for one execution; deletion
// bitmaps are not part of it — they come from the execution's SegView.
type segState struct {
	encoded bool // any chunk RLE- or FoR-encoded
	filters []boundFilter
	dims    []boundDim
	aggs    []boundAgg
}

// boundCol is one root chunk in the one shape both scan kernels read: a
// values array plus, for each selected row, an index into it. Which of
// three forms a chunk takes is decided here, at bind, so no kernel names an
// encoding:
//
//   - plain: the chunk's own array, indexed by the selection vector itself
//     (no copy: the kernels read v[r]);
//   - RLE: one value per run, indexed by each selected row's run
//     (storage.RunIndex), so what a binding derives from the values — a
//     leaf group id — is derived once per run (a probe over an RLE chunk
//     binds as a filterer over its per-run verdicts instead);
//   - FoR: the values at the selected rows, gathered in place into the
//     worker's scratch at each view and indexed 0…n−1.
//
// The values array is whichever of i32, i64 and f64 is set; dictionary
// codes bind as i32, and a FoR chunk's gathered values are int64.
type boundCol struct {
	i32    []int32
	i64    []int64
	f64    []float64
	runEnd []int32         // RLE: cumulative run ends; the values are per run
	packed *storage.FoRCol // FoR: the values are gathered at each view
}

// colBuf is one worker's scratch for one view of a boundCol.
type colBuf struct {
	vals     []int64 // FoR: the values gathered at the selection
	idx      []int32 // RLE: the run of each selected row
	ordinals []int32 // FoR: 0, 1, 2, … (the engine's, read-only)
}

// view returns c's values array at the ascending selection vector sel and,
// for each selected row, its index into that array. Whatever a view
// computes lands in buf, the calling worker's, so a binding stays
// read-only across the execution's concurrent workers; the result aliases
// buf until its next view.
func (c *boundCol) view(sel []int32, buf *colBuf) (boundCol, []int32) {
	switch {
	case c.packed != nil:
		buf.vals = c.packed.Gather(buf.vals, sel)
		return boundCol{i64: buf.vals}, buf.ordinals[:len(sel)]
	case c.runEnd != nil:
		buf.idx = storage.RunIndex(buf.idx, c.runEnd, sel)
		return *c, buf.idx
	}
	return *c, sel
}

// at reads integer chunk c at local row r, where it lies: the row-wise
// kernel's access. A plain int32 chunk, which every FK is, is read here
// directly; readAt reads the rest.
func (c *boundCol) at(r int32) int64 {
	if c.i32 != nil && c.runEnd == nil {
		return int64(c.i32[r])
	}
	return c.readAt(r)
}

// readAt reads a FoR chunk through r's field, an RLE chunk at the run that
// holds r, and a plain int64 chunk directly.
func (c *boundCol) readAt(r int32) int64 {
	switch {
	case c.packed != nil:
		return c.packed.At(int(r))
	case c.runEnd != nil:
		r = int32(storage.FindRun(c.runEnd, int(r)))
	}
	if c.i32 != nil {
		return int64(c.i32[r])
	}
	return c.i64[r]
}

// Chunk types a binding accepts, by role.
func isInt32(t storage.Type) bool { return t == storage.TInt32 }
func isInt(t storage.Type) bool   { return t == storage.TInt32 || t == storage.TInt64 }
func isDict(t storage.Type) bool  { return t == storage.TDict }

// chunk returns the segment's chunk of column name.
func chunk(sv *storage.SegView, name string) (storage.Column, error) {
	c, ok := sv.Cols[name]
	if !ok {
		return nil, fmt.Errorf("core: segment has no column %s", name)
	}
	return c, nil
}

// bindCol binds the segment's chunk of column name, whose type ok must
// accept, as a boundCol: the one place that tells the encodings apart.
func bindCol(sv *storage.SegView, name string, ok func(storage.Type) bool) (boundCol, error) {
	var bc boundCol
	c, err := chunk(sv, name)
	if err != nil {
		return bc, err
	}
	if !ok(c.Type()) {
		return bc, fmt.Errorf("core: segment column %s has unexpected type %s", name, c.Type())
	}
	if rle, isRLE := c.(*storage.RLECol); isRLE {
		bc.runEnd, c = rle.End, rle.Vals
	}
	switch c := c.(type) {
	case *storage.Int32Col:
		bc.i32 = c.V
	case *storage.Int64Col:
		bc.i64 = c.V
	case *storage.Float64Col:
		bc.f64 = c.V
	case *storage.DictCol:
		bc.i32 = c.Codes
	case *storage.FoRCol:
		bc.packed = c
	default:
		return bc, fmt.Errorf("core: segment column %s: unsupported chunk %T", name, c)
	}
	return bc, nil
}

// boundFilter is one scanFilter bound to a segment: a selection-vector
// filterer (a root filter over its chunk as it lies, or a probe over an RLE
// FK chunk, run once per run here), or a probe's first-hop FK chunk.
type boundFilter struct {
	filt  func([]int32) []int32
	probe *probeFilter // shared dimension-side state
	keys  boundCol
}

// passValue reports whether FK value x (a first-level dimension row) passes
// the probe, walking the remaining AIR hops.
func (p *probeFilter) passValue(x int32) bool {
	for _, fk := range p.dimFKs {
		x = fk[x]
	}
	if p.vec != nil {
		return p.vec.Get(int(x))
	}
	return p.match(x)
}

// leafID returns the group id of first-level dimension row x: the group
// vector entry at the end of the remaining AIR hops (-1 if the leaf's
// predicates exclude it).
func (d *groupDim) leafID(x int32) int32 {
	for _, fk := range d.dimFKs {
		x = fk[x]
	}
	return d.vec[x]
}

// boundDim is one groupDim bound to a segment. Its chunk's values are
// either keys into the leaf's group vector (leaf), or numbers whose group
// id is value − base: a root number's values, a root dictionary's codes
// (base 0), or — over an RLE FK chunk — the leaf group ids this binding
// computed once per run (base 0; -1 excludes the row).
type boundDim struct {
	d    *groupDim
	col  boundCol
	leaf bool
	base int64
}

// idOf returns the dense group id of value x of the bound chunk, or -1 if
// the row is excluded by the owning leaf's predicates (group vectors double
// as filters, §4.3).
func (b *boundDim) idOf(x int64) int32 {
	if b.leaf {
		return b.d.leafID(int32(x))
	}
	return int32(x - b.base)
}

// boundAgg is one aggPlan bound to a segment: on the fast path, the
// operand chunks of its recognized form (b unused by FCol); everywhere
// else, and for what the fast form does not cover, the generic evaluator.
type boundAgg struct {
	ap   *aggPlan
	eval func(int32) float64
	a, b boundCol
	fast bool
}

// bind resolves the plan's root-resident recipes against one segment's
// chunks. Both kernels read the same binding, every chunk where it lies:
// it holds the chunks themselves plus O(runs) verdicts and group ids, and
// allocates nothing per row.
func (pl *plan) bind(sv *storage.SegView) (*segState, error) {
	st := &segState{}
	for _, c := range sv.Cols {
		if storage.ChunkEncoding(c) != storage.EncPlain {
			st.encoded = true
			break
		}
	}
	st.filters = make([]boundFilter, 0, len(pl.filters))
	for i := range pl.filters {
		bf, err := bindFilter(sv, &pl.filters[i])
		if err != nil {
			return nil, err
		}
		st.filters = append(st.filters, bf)
	}
	st.dims = make([]boundDim, 0, len(pl.dims))
	for _, d := range pl.dims {
		bd, err := bindDim(sv, d)
		if err != nil {
			return nil, err
		}
		st.dims = append(st.dims, bd)
	}
	st.aggs = make([]boundAgg, 0, len(pl.aggs))
	for _, ap := range pl.aggs {
		ba, err := pl.bindAgg(sv, ap)
		if err != nil {
			return nil, err
		}
		st.aggs = append(st.aggs, ba)
	}
	return st, nil
}

// bindFilter binds one filter: a root filter's selection-vector filterer,
// or a probe's FK chunk. A probe over an RLE FK chunk chases each run's key
// through the AIR chain once, here, and binds as a filterer over the runs.
func bindFilter(sv *storage.SegView, f *scanFilter) (boundFilter, error) {
	if f.root != nil {
		c, err := chunk(sv, f.root.col)
		if err != nil {
			return boundFilter{}, err
		}
		filt, err := f.root.pred.Filterer(c)
		return boundFilter{filt: filt}, err
	}
	keys, err := bindCol(sv, f.probe.fk0, isInt32)
	if err != nil || keys.runEnd == nil {
		return boundFilter{probe: f.probe, keys: keys}, err
	}
	end, pass := keys.runEnd, make([]bool, len(keys.i32))
	for ri, x := range keys.i32 {
		pass[ri] = f.probe.passValue(x)
	}
	return boundFilter{filt: func(sel []int32) []int32 { return storage.KeepRuns(sel, end, pass) }}, nil
}

// bindDim binds one group dimension; a leaf's RLE FK chunk gets its group
// id per run here.
func bindDim(sv *storage.SegView, d *groupDim) (boundDim, error) {
	bd := boundDim{d: d, leaf: d.kind == gdLeafVec}
	var err error
	switch d.kind {
	case gdLeafVec:
		bd.col, err = bindCol(sv, d.fk0, isInt32)
	case gdRootDict:
		bd.col, err = bindCol(sv, d.col, isDict)
	default:
		bd.col, err = bindCol(sv, d.col, isInt)
		bd.base = d.base
	}
	if err != nil || !bd.leaf || bd.col.runEnd == nil {
		return bd, err
	}
	ids := make([]int32, len(bd.col.i32))
	for ri, x := range bd.col.i32 {
		ids[ri] = d.leafID(x)
	}
	bd.col.i32, bd.leaf = ids, false
	return bd, nil
}

// bindAgg binds one aggregate: on the array backend, the operand chunks of
// a recognized fast form, whatever their type and encoding; everywhere
// else, and whenever the fast form does not cover it, the generic
// evaluator over per-row accessors.
func (pl *plan) bindAgg(sv *storage.SegView, ap *aggPlan) (boundAgg, error) {
	ba := boundAgg{ap: ap}
	if ap.agg.Expr == nil {
		return ba, nil
	}
	if ap.fastTry && pl.useArray {
		var err error
		if ba.a, err = bindCol(sv, ap.colA, storage.Type.IsNumeric); err != nil {
			return ba, err
		}
		if ap.colB != "" {
			if ba.b, err = bindCol(sv, ap.colB, storage.Type.IsNumeric); err != nil {
				return ba, err
			}
		}
		ba.fast = true
		// The fast form covers SUM and AVG of a single column, so such an
		// aggregate needs no evaluator.
		if ap.form == expr.FCol && (ap.kind == expr.Sum || ap.kind == expr.Avg) {
			return ba, nil
		}
	}
	eval, err := expr.Compile(ap.agg.Expr, func(name string) (func(int32) float64, error) {
		eb := ap.binds[name]
		if eb == nil {
			return nil, fmt.Errorf("core: unbound column %s", name)
		}
		if eb.onRoot {
			c, err := chunk(sv, eb.rootCol)
			if err != nil {
				return nil, err
			}
			return expr.ColAccessor(c)
		}
		keys, err := bindCol(sv, eb.fk0, isInt32)
		if err != nil {
			return nil, err
		}
		acc, fks := eb.acc, eb.dimFKs
		return func(r int32) float64 {
			x := int32(keys.at(r))
			for _, fk := range fks {
				x = fk[x]
			}
			return acc(x)
		}, nil
	})
	ba.eval = eval
	return ba, err
}
