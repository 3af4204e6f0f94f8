package core

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"astore/internal/agg"
	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/schema"
	"astore/internal/storage"
)

// The plan layer separates what is append-stable from what is not:
//
//   - Dimension-side state (predicate vectors, group vectors, dictionaries,
//     AIR hops beyond the first) is captured at plan time from the
//     dimensions' contiguous column arrays, and any dimension mutation
//     advances its DataVersion, which evicts the plan.
//   - Root(fact)-side state — the chunks the scan actually reads — is a
//     *recipe* bound per segment at execution time (segState), for that
//     execution only. A root that never seals is all tail.
//
// This is what lets live appends to a fact table advance its DataVersion
// without invalidating cached plans: new rows only ever land in the tail
// (or freshly sealed segments), and the zone-map requirements recorded in
// the plan (fkMax, dimReqs) prove at execution time that every segment's
// values still fall inside the ranges the plan was compiled for.

// rootFilter is a predicate on a root-table column, evaluated by direct
// selection-vector refinement through a filterer bound per segment.
type rootFilter struct {
	pred expr.Pred
	col  string
	sel  float64
	// mask is the dictionary match mask when the column is TDict, used for
	// zone-map pruning over code ranges (codes past len(mask) are new
	// values interned after planning and conservatively match).
	mask []bool
}

// scanFilter is one entry of the unified, selectivity-ordered filter
// sequence: either a root-column refinement or a dimension probe.
type scanFilter struct {
	root  *rootFilter
	probe *probeFilter
	// rank orders evaluation: estimated (or measured) selectivity scaled
	// by a per-row cost factor, so "most selective first" (§4.1) does not
	// schedule an expensive multi-hop string probe ahead of a cheap
	// sequential integer compare of similar selectivity.
	rank float64
	// label identifies the filter in Explain output and per-filter prune
	// attribution (Stats.PruneByFilter).
	label string
}

// probeFilter evaluates dimension predicates during the root scan. With a
// predicate vector (vec != nil) it is a bit probe addressed through the AIR
// chain; otherwise it is a direct evaluation of the dimension column at the
// chained position (the paper's fallback for filters too large to cache).
// The first AIR hop lives on the root and is bound per segment (fk0 is its
// column name); the remaining hops are dimension-resident arrays.
type probeFilter struct {
	table  string
	fk0    string
	dimFKs [][]int32
	vec    *storage.Bitmap
	match  func(int32) bool
	sel    float64
}

// gdKind discriminates group-dimension implementations.
type gdKind uint8

const (
	gdLeafVec  gdKind = iota // group vector + dictionary on the owning leaf table
	gdRootDict               // dictionary codes of a root DictCol
	gdRootNum                // numeric root column, id = value - base
)

// groupDim is one grouping column prepared for the grouping phase: a dense
// group-id mapping (the paper's dictionary-compressed group vector) plus the
// decode table used at extraction. Root-resident arrays (dict codes, numeric
// columns, the first AIR hop of leaf dims) are bound per segment.
type groupDim struct {
	name string
	kind gdKind

	col    string    // root kinds: root column name
	fk0    string    // leaf kind: root-side FK column name
	dimFKs [][]int32 // AIR hops beyond the first (dimension-resident)
	vec    []int32   // leaf group vector: dense id, or -1 for deleted rows

	base int64
	card int
	vals []query.Value // decode table for gdLeafVec
	dict *storage.Dict // decode table for gdRootDict
}

// decode maps a dense group id back to the group-by value.
func (d *groupDim) decode(id int32) query.Value {
	switch d.kind {
	case gdLeafVec:
		return d.vals[id]
	case gdRootDict:
		return query.StrValue(d.dict.Value(id))
	default:
		return query.NumValue(float64(d.base + int64(id)))
	}
}

// evalBind records how one column of a measure expression is reached from a
// root row: directly (root columns, rebound per segment) or through an AIR
// chain whose first hop is rebound per segment.
type evalBind struct {
	onRoot  bool
	rootCol string
	acc     func(int32) float64 // leaf: accessor over the dimension column
	fk0     string
	dimFKs  [][]int32
}

// aggPlan is one aggregate prepared for the aggregation phase: a recognized
// dense-array fast path where possible (colA/colB are root column names
// bound per segment), plus a generic evaluator recipe.
type aggPlan struct {
	agg  expr.Aggregate
	kind expr.AggKind

	form       expr.Form
	colA, colB string
	fastTry    bool

	binds map[string]*evalBind // generic evaluator column bindings
}

// rootDimReq is a value-range requirement the root must satisfy for the
// plan to stay executable: every segment's zone for col must stay
// within [lo, hi] (group ids index a fixed-shape aggregation array).
type rootDimReq struct {
	col    string
	lo, hi int64
}

// plan is a fully resolved execution plan for one query.
type plan struct {
	q       *query.Query
	variant Variant
	opt     Options
	eng     *Engine
	graph   *schema.Graph // join graph the plan was resolved against

	root *storage.Table

	rootFilters  []rootFilter
	probeFilters []probeFilter
	filters      []scanFilter // unified evaluation order

	dims     []*groupDim
	useArray bool
	dimCards []int
	// arrKey is the plan's aggregation-array shape as an engine array-pool
	// key, and releaseArr the hook that returns such an array to the pool;
	// both are fixed with the backend choice (array backend only).
	arrKey     string
	releaseArr func(*agg.ArrayAgg)

	// kernel scans one morsel of a bound segment into an aggregation state.
	// It is selected once, from the variant: the row-wise kernel for
	// AIRScan_R/_R_P, the column-wise kernel for everything else.
	kernel func(w *worker, st *agg.State, es execSeg, lo, hi int)

	aggKinds []expr.AggKind
	aggs     []*aggPlan

	// Freshness requirements on the root's zone maps (see rootCovered).
	fkMax   map[string]int64
	dimReqs []rootDimReq

	// id is the plan instance's unique identity: the key prefix for the
	// engine-level segment caches (bindings and aggregate partials).
	// Group-id assignment and compiled dimension state differ between
	// plan instances even for identical SQL, so cached per-segment state
	// is only reusable by the exact instance that produced it.
	id uint64

	stats  Stats
	leafNS int64
}

// planSeq issues unique plan instance ids.
var planSeq atomic.Uint64

// planOn compiles q against the frozen tables of a pinned View, building
// predicate vectors, group vectors, and aggregate evaluators. This is the
// "leaf processing" phase of Fig. 10.
func (e *Engine) planOn(q *query.Query, v *View) (*plan, error) {
	start := time.Now()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	pl := &plan{
		q:       q,
		variant: e.opt.Variant,
		opt:     e.opt,
		eng:     e,
		graph:   v.graph,
		root:    v.root,
		fkMax:   make(map[string]int64),
		id:      planSeq.Add(1),
	}

	if err := pl.planFilters(); err != nil {
		return nil, err
	}
	if err := pl.planGroupDims(v.rootSegs); err != nil {
		return nil, err
	}
	if err := pl.planAggs(); err != nil {
		return nil, err
	}
	pl.decideAggBackend()
	if pl.variant.rowWise() {
		pl.kernel = pl.processMorselRowWise
	} else {
		pl.kernel = pl.processMorselColumnar
	}

	pl.leafNS = time.Since(start).Nanoseconds()
	return pl, nil
}

// needFK records that the plan indexes a captured dimension-side array of
// length n through root FK column col: segments must keep fk values in
// [0, n) for the plan to stay executable.
func (pl *plan) needFK(col string, n int) {
	hi := int64(n) - 1
	if cur, ok := pl.fkMax[col]; !ok || hi < cur {
		pl.fkMax[col] = hi
	}
}

// usePrefilter decides whether a predicate vector for table t fits the
// cache budget (§4.2: "an optimizer is used to decide whether to use
// predicate vectors, according to the row number of each table").
func (pl *plan) usePrefilter(t *storage.Table) bool {
	return pl.opt.Variant.usesPrefilters() && t.NumRows() <= pl.opt.PrefilterMaxRows
}

// planFilters resolves predicates, builds per-table predicate vectors,
// folds snowflake chains into first-level dimensions where the budget
// allows, and orders all filters most-selective-first.
func (pl *plan) planFilters() error {
	type tablePreds struct {
		binding *schema.Binding // any binding of this table (for the path)
		preds   []expr.Pred
		cols    []storage.Column
	}
	perTable := make(map[*storage.Table]*tablePreds)
	var tableOrder []*storage.Table

	for _, p := range pl.q.Preds {
		b, err := pl.graph.Resolve(p.Col)
		if err != nil {
			return err
		}
		if b.OnRoot() {
			col := b.Col
			// Compile once against the column type to surface type errors
			// at plan time (the per-segment binding recompiles cheaply).
			if _, err := p.Filterer(col); err != nil {
				return err
			}
			rf := rootFilter{pred: p, col: b.Name, sel: p.EstimatedSel()}
			if dc, ok := col.(*storage.DictCol); ok && p.Kind == expr.KStr {
				if mask, err := p.DictMask(dc.Dict); err == nil {
					rf.mask = mask
				}
			}
			pl.rootFilters = append(pl.rootFilters, rf)
			continue
		}
		tp := perTable[b.Table]
		if tp == nil {
			tp = &tablePreds{binding: b}
			perTable[b.Table] = tp
			tableOrder = append(tableOrder, b.Table)
		}
		tp.preds = append(tp.preds, p)
		tp.cols = append(tp.cols, b.Col)
	}

	// Build predicate vectors for tables within the cache budget.
	vecs := make(map[*storage.Table]*storage.Bitmap)
	for _, t := range tableOrder {
		if !pl.usePrefilter(t) {
			continue
		}
		tp := perTable[t]
		vec := storage.NewBitmap(t.NumRows())
		vec.SetAll()
		if del := t.Deleted(); del != nil {
			vec.AndNot(del) // out-of-date tuples never match (§4.4)
		}
		tmp := storage.NewBitmap(t.NumRows())
		for i, p := range tp.preds {
			if err := p.Bitmap(tp.cols[i], tmp); err != nil {
				return err
			}
			vec.And(tmp)
		}
		vecs[t] = vec
	}

	// Fold chains: push each vector one step toward the root while the
	// hosting table also fits the budget, so an entire snowflake chain
	// collapses into a single filter on its first-level dimension (§4.2).
	depthOf := func(t *storage.Table) int { return pl.graph.Depth(t) }
	var vecTables []*storage.Table
	for t := range vecs {
		vecTables = append(vecTables, t)
	}
	sort.Slice(vecTables, func(i, j int) bool { return depthOf(vecTables[i]) > depthOf(vecTables[j]) })
	for _, t := range vecTables {
		vec := vecs[t]
		if vec == nil {
			continue
		}
		for depthOf(t) > 1 {
			path, _ := pl.graph.PathTo(t)
			step := path[len(path)-1]
			parent := step.From
			if parent.NumRows() > pl.opt.PrefilterMaxRows {
				break // the paper's "probe the big table directly" case
			}
			pvec := vecs[parent]
			if pvec == nil {
				pvec = storage.NewBitmap(parent.NumRows())
				pvec.SetAll()
				if del := parent.Deleted(); del != nil {
					pvec.AndNot(del)
				}
				vecs[parent] = pvec
			}
			fk := parent.Column(step.FKCol).(*storage.Int32Col).V
			for i := 0; i < parent.NumRows(); i++ {
				if pvec.Get(i) && !vec.Get(int(fk[i])) {
					pvec.Clear(i)
				}
			}
			delete(vecs, t)
			t, vec = parent, pvec
		}
	}

	// Emit probe filters: predicate vectors first (cheap bit probes), then
	// direct matchers for tables without vectors.
	for _, t := range pl.graph.Tables() {
		vec, ok := vecs[t]
		if !ok {
			continue
		}
		path, _ := pl.graph.PathTo(t)
		sel := 1.0
		if t.NumRows() > 0 {
			sel = float64(vec.Count()) / float64(t.NumRows())
		}
		pf := probeFilter{table: t.Name, vec: vec, sel: sel}
		pf.fk0, pf.dimFKs = pl.bindPath(path)
		pl.probeFilters = append(pl.probeFilters, pf)
		pl.stats.PrefilterTables = append(pl.stats.PrefilterTables, t.Name)
	}
	for _, t := range tableOrder {
		if _, folded := vecs[t]; folded {
			continue
		}
		// The table's own vector may have been folded upward; if any
		// ancestor holds a vector now, the predicates are already applied.
		if pl.coveredByVec(t, vecs) {
			continue
		}
		tp := perTable[t]
		matchers := make([]func(int32) bool, len(tp.preds))
		sel := 1.0
		for i, p := range tp.preds {
			m, err := p.Matcher(tp.cols[i])
			if err != nil {
				return err
			}
			matchers[i] = m
			sel *= p.EstimatedSel()
		}
		match := matchers[0]
		if len(matchers) > 1 {
			ms := matchers
			match = func(r int32) bool {
				for _, m := range ms {
					if !m(r) {
						return false
					}
				}
				return true
			}
		}
		pf := probeFilter{table: t.Name, match: match, sel: sel}
		pf.fk0, pf.dimFKs = pl.bindPath(tp.binding.Path)
		pl.probeFilters = append(pl.probeFilters, pf)
	}

	// Unified evaluation order, most selective first (§4.1: the effect of
	// selection-vector shrinkage is maximized by running the most
	// selective predicates first). Probes through predicate vectors cost a
	// little more per row than sequential root compares (one AIR hop plus
	// a bit test); direct dimension probes cost much more (chain walk plus
	// value comparison). The rank scales selectivity by those costs.
	for i := range pl.rootFilters {
		f := &pl.rootFilters[i]
		pl.filters = append(pl.filters, scanFilter{root: f, rank: f.sel, label: f.pred.String()})
	}
	for i := range pl.probeFilters {
		f := &pl.probeFilters[i]
		cost := 1.3
		if f.vec == nil {
			cost = 2.5
		}
		cost += 0.2 * float64(len(f.dimFKs))
		label := fmt.Sprintf("probe %s via %s", f.table, f.fk0)
		pl.filters = append(pl.filters, scanFilter{probe: f, rank: f.sel * cost, label: label})
	}
	sort.SliceStable(pl.filters, func(i, j int) bool {
		return pl.filters[i].rank < pl.filters[j].rank
	})
	return nil
}

// bindPath splits a reference path into the root-side first hop (a column
// name, bound per segment) and the captured dimension-side hop arrays. The
// first hop indexes the first-level dimension's arrays, so that bound is
// recorded as a freshness requirement.
func (pl *plan) bindPath(path []schema.Step) (fk0 string, dimFKs [][]int32) {
	fk0 = path[0].FKCol
	pl.needFK(fk0, path[0].To.NumRows())
	if len(path) > 1 {
		dimFKs = make([][]int32, 0, len(path)-1)
		for _, s := range path[1:] {
			fk := s.From.Column(s.FKCol).(*storage.Int32Col)
			dimFKs = append(dimFKs, fk.V)
		}
	}
	return fk0, dimFKs
}

// coveredByVec reports whether the predicates of t were folded into a
// predicate vector of some table on t's reference path.
func (pl *plan) coveredByVec(t *storage.Table, vecs map[*storage.Table]*storage.Bitmap) bool {
	path, _ := pl.graph.PathTo(t)
	for _, s := range path {
		if s.From != pl.root {
			if _, ok := vecs[s.From]; ok {
				return true
			}
		}
	}
	return false
}

// planGroupDims prepares a dense group-id mapping per grouping column: a
// group vector plus dictionary for leaf columns (built while the leaf is
// already being processed, §4.3), dictionary codes for root dict columns,
// and base-offset encoding for root numeric columns, whose ranges come from
// the zones of the root segments segs.
func (pl *plan) planGroupDims(segs []storage.SegView) error {
	for _, name := range pl.q.GroupBy {
		b, err := pl.graph.Resolve(name)
		if err != nil {
			return err
		}
		if b.OnRoot() {
			d, err := pl.rootGroupDim(name, b, segs)
			if err != nil {
				return err
			}
			pl.dims = append(pl.dims, d)
			continue
		}
		d, err := leafGroupDim(name, b)
		if err != nil {
			return err
		}
		d.fk0, d.dimFKs = pl.bindPath(b.Path)
		pl.dims = append(pl.dims, d)
	}
	return nil
}

// rootGroupDim builds the group dimension for a root-table column. The
// dense-id range comes from the root's zone maps (conservatively covering
// deleted rows) and is recorded as a freshness requirement, so appends that
// widen the column's value range evict the plan instead of overflowing the
// aggregation array.
func (pl *plan) rootGroupDim(name string, b *schema.Binding, segs []storage.SegView) (*groupDim, error) {
	if c, ok := b.Col.(*storage.DictCol); ok {
		card := c.Dict.Len()
		if card == 0 {
			card = 1
		}
		pl.dimReqs = append(pl.dimReqs, rootDimReq{col: b.Name, lo: 0, hi: int64(card) - 1})
		return &groupDim{
			name: name, kind: gdRootDict, col: b.Name,
			card: card, dict: c.Dict,
		}, nil
	}
	if !isInt(b.Col.Type()) {
		return nil, fmt.Errorf("core: grouping by %s column %s on the fact table is not supported; group by an integer or dictionary-compressed column", b.Col.Type(), name)
	}
	lo, hi, err := rootNumRange(name, b, segs)
	if err != nil {
		return nil, err
	}
	if hi-lo >= math.MaxInt32 {
		return nil, fmt.Errorf("core: group column %s has range %d, too wide for dense ids", name, hi-lo)
	}
	pl.dimReqs = append(pl.dimReqs, rootDimReq{col: b.Name, lo: lo, hi: hi})
	return &groupDim{
		name: name, kind: gdRootNum, col: b.Name,
		base: lo, card: int(hi - lo + 1),
	}, nil
}

// rootNumRange returns the integer value range of a numeric root column:
// the union of its zones over segs.
func rootNumRange(name string, b *schema.Binding, segs []storage.SegView) (lo, hi int64, err error) {
	any := false
	for _, sv := range segs {
		if sv.N == 0 {
			continue
		}
		z, ok := sv.Zones[b.Name]
		if !ok || !z.OK {
			return 0, 0, fmt.Errorf("core: group column %s has no zone map", name)
		}
		if !any {
			lo, hi, any = z.MinI, z.MaxI, true
			continue
		}
		lo, hi = min(lo, z.MinI), max(hi, z.MaxI)
	}
	return lo, hi, nil
}

// leafGroupDim builds the group vector and group dictionary for a grouping
// column on a leaf table (Fig. 6): vec[i] is the dense group id of leaf row
// i, and -1 for deleted rows.
func leafGroupDim(name string, b *schema.Binding) (*groupDim, error) {
	t := b.Table
	n := t.NumRows()
	d := &groupDim{name: name, kind: gdLeafVec, vec: make([]int32, n)}
	del := t.Deleted()

	c := b.Col
	var slot func(i int) *int32 // the id cell of row i's group
	value := func(i int) query.Value { s, _ := storage.StringAt(c, i); return query.StrValue(s) }
	switch typ := c.Type(); {
	case typ == storage.TDict:
		// Dictionary codes are dense: their id cells are an array.
		dc := c.(*storage.DictCol)
		codes, ids := dc.Codes, make([]int32, dc.Dict.Len())
		for i := range ids {
			ids[i] = -1
		}
		slot = func(i int) *int32 { return &ids[codes[i]] }
	case typ == storage.TString:
		slot = mapSlots(func(i int) string { s, _ := storage.StringAt(c, i); return s })
	case isInt(typ):
		slot = mapSlots(func(i int) int64 { v, _ := storage.Int64At(c, i); return v })
		value = func(i int) query.Value { v, _ := storage.Int64At(c, i); return query.NumValue(float64(v)) }
	default:
		return nil, fmt.Errorf("core: unsupported group column type %s for %s", typ, name)
	}
	for i := range d.vec {
		if del != nil && del.Get(i) {
			d.vec[i] = -1
			continue
		}
		id := slot(i)
		if *id < 0 {
			*id = int32(len(d.vals))
			d.vals = append(d.vals, value(i))
		}
		d.vec[i] = *id
	}
	d.card = len(d.vals)
	if d.card == 0 {
		d.card = 1 // empty table: keep array shapes valid
	}
	return d, nil
}

// mapSlots returns id cells keyed by key(i), each -1 until first used: the
// group ids of a column whose values are not dense codes.
func mapSlots[K comparable](key func(i int) K) func(i int) *int32 {
	ids := make(map[K]*int32)
	return func(i int) *int32 {
		k := key(i)
		id, ok := ids[k]
		if !ok {
			id = new(int32)
			*id = -1
			ids[k] = id
		}
		return id
	}
}

// planAggs prepares the aggregate evaluator recipes, recognizing dense fast
// paths for root-resident measure expressions.
func (pl *plan) planAggs() error {
	for _, a := range pl.q.Aggs {
		ap := &aggPlan{agg: a, kind: a.Kind}
		pl.aggKinds = append(pl.aggKinds, a.Kind)
		if a.Expr == nil { // COUNT(*)
			pl.aggs = append(pl.aggs, ap)
			continue
		}

		// Generic evaluator recipe: resolve every referenced column now so
		// schema errors surface at plan time; per-segment binding composes
		// the recorded accessors with the segment's chunks.
		ap.binds = make(map[string]*evalBind)
		for _, name := range expr.Cols(a.Expr) {
			b, err := pl.graph.Resolve(name)
			if err != nil {
				return err
			}
			if b.OnRoot() {
				if _, err := expr.ColAccessor(b.Col); err != nil {
					return err
				}
				ap.binds[name] = &evalBind{onRoot: true, rootCol: b.Name}
				continue
			}
			acc, err := expr.ColAccessor(b.Col)
			if err != nil {
				return err
			}
			eb := &evalBind{acc: acc}
			eb.fk0, eb.dimFKs = pl.bindPath(b.Path)
			ap.binds[name] = eb
		}

		// Fast path: recognized form with all referenced columns on the
		// root table (numeric types verified at binding).
		rec := expr.Recognize(a.Expr)
		if rec.Form != expr.FGeneric && !pl.variant.rowWise() {
			ok := true
			onRootNumeric := func(name string) string {
				b, err := pl.graph.Resolve(name)
				if err != nil || !b.OnRoot() {
					ok = false
					return ""
				}
				if typ, _ := b.Table.ColumnType(b.Name); !typ.IsNumeric() {
					ok = false
					return ""
				}
				return b.Name
			}
			colA := onRootNumeric(rec.A)
			colB := ""
			if rec.Form != expr.FCol {
				colB = onRootNumeric(rec.B)
			}
			if ok {
				ap.form = rec.Form
				ap.colA, ap.colB = colA, colB
				ap.fastTry = true
			}
		}
		pl.aggs = append(pl.aggs, ap)
	}
	return nil
}

// decideAggBackend chooses between the multidimensional aggregation array
// and hash aggregation (§4.3: the optimizer estimates the sparsity/size of
// the aggregation array).
func (pl *plan) decideAggBackend() {
	pl.dimCards = pl.dimCards[:0]
	for _, d := range pl.dims {
		pl.dimCards = append(pl.dimCards, d.card)
	}
	if pl.variant.rowWise() || pl.variant == ColWise || pl.variant == ColWisePF {
		pl.useArray = false
		return
	}
	cells := int64(1)
	for _, c := range pl.dimCards {
		cells *= int64(c)
		if cells > int64(agg.MaxArrayCells) {
			pl.useArray = false
			return
		}
	}
	limit := int64(agg.MaxArrayCells)
	if pl.variant == Auto {
		limit = int64(pl.opt.MaxArrayGroups)
	}
	pl.useArray = cells <= limit
	pl.stats.UsedArrayAgg = pl.useArray
	if pl.useArray {
		pl.arrKey = fmt.Sprintf("%v|%v", pl.dimCards, pl.aggKinds)
		pl.releaseArr = func(a *agg.ArrayAgg) { pl.eng.putArray(pl.arrKey, a) }
	}
}

// rootCovered reports whether every segment of a root view still satisfies
// the plan's recorded range requirements: foreign-key values stay inside
// the captured dimension-side arrays, and root grouping values stay inside
// the aggregation array's dense-id ranges. It is the execution-time
// freshness test that lets cached plans survive appends: zone maps prove
// the new rows cannot escape the compiled ranges.
func (pl *plan) rootCovered(segs []storage.SegView) bool {
	for i := range segs {
		sv := &segs[i]
		if sv.N == 0 {
			continue
		}
		for col, hi := range pl.fkMax {
			z, ok := sv.Zones[col]
			if !ok || !z.OK || z.MinI < 0 || z.MaxI > hi {
				return false
			}
		}
		for _, rq := range pl.dimReqs {
			z, ok := sv.Zones[rq.col]
			if !ok || !z.OK || z.MinI < rq.lo || z.MaxI > rq.hi {
				return false
			}
		}
	}
	return true
}

// mayMatchSegment reports whether a filter could select any row of the
// segment, consulting zone maps. Conservative: unknown shapes return true.
func (f *scanFilter) mayMatchSegment(sv *storage.SegView) bool {
	if f.root != nil {
		z, ok := sv.Zones[f.root.col]
		if !ok {
			return true
		}
		if !z.OK {
			return false // empty chunk: nothing matches
		}
		if z.Typ == storage.TDict {
			if f.root.mask == nil {
				return true
			}
			return maskAnyInRange(f.root.mask, z.MinI, z.MaxI)
		}
		if z.Typ == storage.TFloat64 {
			return f.root.pred.OverlapsFloatRange(z.MinF, z.MaxF)
		}
		return f.root.pred.OverlapsIntRange(z.MinI, z.MaxI)
	}
	// Probe pruning: a predicate vector on the first-level dimension plus
	// the segment's FK range prove emptiness when no selected dimension row
	// falls inside the range. Deeper (unfolded) chains cannot be pruned
	// from the root FK range alone.
	p := f.probe
	if p.vec == nil || len(p.dimFKs) > 0 {
		return true
	}
	z, ok := sv.Zones[p.fk0]
	if !ok {
		return true // missing zone: conservative
	}
	if !z.OK {
		return false // empty chunk: nothing matches
	}
	return p.vec.AnySetInRange(int(z.MinI), int(z.MaxI))
}

// maskAnyInRange reports whether any dictionary code in [lo, hi] has its
// mask bit set; codes beyond the mask are values interned after planning
// and conservatively match.
func maskAnyInRange(mask []bool, lo, hi int64) bool {
	if lo < 0 {
		lo = 0
	}
	if hi >= int64(len(mask)) {
		return true
	}
	for c := lo; c <= hi; c++ {
		if mask[c] {
			return true
		}
	}
	return false
}
