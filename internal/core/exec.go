package core

import (
	"context"
	"slices"
	"sync"
	"time"

	"astore/internal/agg"
	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/storage"
)

// runState is the mutable per-execution state of one plan run. It is
// separate from the plan so that a cached, compiled plan can be executed by
// many goroutines concurrently: the plan stays read-only after compilation
// and every execution accumulates timing into its own runState.
type runState struct {
	stats Stats
}

// morsel is one unit of scan work: a local row range [lo, hi) of one
// segment. The engine over-partitions (Workers × partitionsPerWorker
// morsels, at least one per scan batch) and lets workers pull morsels from
// a queue, which is the paper's load-balancing scheme of allocating more
// logical partitions than physical threads (§5) — now segment-granular, so
// a morsel never straddles segments and zone-map pruning drops whole
// segments before any morsel is enqueued.
type morsel struct {
	si     int  // index into the execution's kept-segment list
	lo, hi int  // local row range within the segment
	whole  bool // whole-segment unit: capture + install its partial
}

// partitionsPerWorker is how many morsels per worker the live rows are cut
// into, at least: the paper allocates more logical partitions than physical
// threads to keep every thread saturated.
const partitionsPerWorker = 4

// execSeg is one segment admitted to the scan, with its bound state. A
// sealed segment missing from the aggregate cache carries install=true: it
// is scanned as one whole-segment unit so its partial can be captured and
// installed under key.
type execSeg struct {
	sv      *storage.SegView
	st      *segState
	install bool
	key     aggKey
}

// worker is one scan goroutine's private working set: its aggregation
// state, its share of the run's timing and row counters, and reused
// per-morsel buffers (§5: intermediate results are used exclusively by the
// worker itself; the driver merges them after the scan).
type worker struct {
	st    *agg.State
	stats Stats // ScanNS, AggNS, RowsScanned, RowsSelected
	err   error // why the worker stopped early: ctx.Err() or a failed merge

	// Reused per-morsel buffers. ints and ints2 hold integer values read in
	// place from encoded chunks at the selected rows.
	sel         []int32
	mi          []int32
	cells       []*agg.Cell
	key         []byte
	ints, ints2 []int64
}

// newState builds an empty aggregation state of the plan's backend: a
// pooled aggregation array, or a fresh hash table.
func (pl *plan) newState() (*agg.State, error) {
	if !pl.useArray {
		return agg.NewHashAgg(pl.aggKinds).State(), nil
	}
	arr, err := pl.eng.getArray(pl.arrKey, pl.dimCards, pl.aggKinds)
	if err != nil {
		return nil, err
	}
	return arr.State(pl.releaseArr), nil
}

// aggCacheable reports whether this plan's executions go through the
// per-segment aggregate cache: columnar kernels only (the row-wise
// baselines exist to measure the uncached scan) and only when the engine's
// cache is enabled.
func (pl *plan) aggCacheable() bool {
	return !pl.variant.rowWise() && pl.eng.aggCache.enabled()
}

// admit applies zone-map pruning over the root's segment views: a segment
// is skipped when any filter proves, from the segment's min/max zones, that
// no row can match. Pruning decisions are per segment and per predicate,
// before any row work, whichever kernel scans the survivors.
//
// Surviving sealed segments are then looked up in the engine's aggregate
// cache: a hit returns the stored partial (second return value) and skips
// binding and scanning entirely; a miss is bound and marked install so the
// scan captures its partial. The tail always binds and scans live.
func (pl *plan) admit(segs []storage.SegView, rs *runState) ([]execSeg, []*agg.Partial, error) {
	admitT0 := time.Now()
	var bindNS, cacheNS int64
	useCache := pl.aggCacheable()
	kept := make([]execSeg, 0, len(segs))
	var hits []*agg.Partial
	rs.stats.SegmentsTotal += int64(len(segs))
	for i := range segs {
		sv := &segs[i]
		if sv.N == 0 {
			rs.stats.SegmentsPruned++
			continue
		}
		pruned := false
		for fi := range pl.filters {
			if !pl.filters[fi].mayMatchSegment(sv) {
				pruned = true
				if rs.stats.PruneByFilter == nil {
					rs.stats.PruneByFilter = make(map[string]int64)
				}
				rs.stats.PruneByFilter[pl.filters[fi].label]++
				break
			}
		}
		if pruned {
			rs.stats.SegmentsPruned++
			continue
		}
		es := execSeg{sv: sv}
		if useCache && sv.Sealed {
			cacheT0 := time.Now()
			es.key = aggKey{plan: pl.id, seg: sv.Seg, epoch: sv.Epoch, delGen: sv.DelGen}
			v, ok := pl.eng.aggCache.get(es.key)
			cacheNS += time.Since(cacheT0).Nanoseconds()
			if ok {
				hits = append(hits, v)
				rs.stats.AggCacheHits++
				continue
			}
			rs.stats.AggCacheMisses++
			es.install = true
		} else if !sv.Sealed {
			rs.stats.TailRows += int64(sv.N)
		}
		bindT0 := time.Now()
		st, err := pl.bind(sv)
		bindNS += time.Since(bindT0).Nanoseconds()
		if err != nil {
			return nil, nil, err
		}
		if st.encoded {
			rs.stats.EncodedSegments++
		}
		es.st = st
		kept = append(kept, es)
	}
	rs.stats.BindNS += bindNS
	rs.stats.CacheNS += cacheNS
	if prune := time.Since(admitT0).Nanoseconds() - bindNS - cacheNS; prune > 0 {
		rs.stats.PruneNS += prune
	}
	return kept, hits, nil
}

// makeUnits builds the scan work list: one whole-segment unit per
// cache-install segment (its partial must be captured in isolation), and
// the live segments (the tail; every segment when the cache is off) sliced
// into near-equal morsels — enough
// for the over-partitioned parallel schedule, and none larger than the
// batch-row bound, which is the granularity of cancellation checks.
func (pl *plan) makeUnits(kept []execSeg) []morsel {
	var units []morsel
	live := 0
	for si, es := range kept {
		if es.install {
			units = append(units, morsel{si: si, lo: 0, hi: es.sv.N, whole: true})
		} else {
			live += es.sv.N
		}
	}
	if live == 0 {
		return units
	}
	count := max(pl.opt.Workers*partitionsPerWorker, (live+pl.opt.BatchRows-1)/pl.opt.BatchRows)
	chunk := max(1, min((live+count-1)/count, pl.opt.BatchRows))
	for si, es := range kept {
		if es.install {
			continue
		}
		for lo := 0; lo < es.sv.N; lo += chunk {
			units = append(units, morsel{si: si, lo: lo, hi: min(lo+chunk, es.sv.N)})
		}
	}
	return units
}

// scan is the engine's one execution driver (§3's three phases over §5's
// partitioned fact table): admit the segments (zone-map prune, aggregate
// cache lookup, bind), split the survivors into units, let every worker
// aggregate its units into a private state, merge the worker states, and
// fold in the cached partials of the segments that needed no scan. The
// caller finalizes or captures the returned state and releases it.
//
// Cancellation is checked at every unit and scan-batch boundary. A unit
// that is skipped or abandoned half-way fails the whole run with ctx.Err()
// — a state that is missing rows is never returned as a result — and every
// pooled aggregation array goes back to the engine.
func (pl *plan) scan(ctx context.Context, segs []storage.SegView, rs *runState) (*agg.State, error) {
	kept, hits, err := pl.admit(segs, rs)
	if err != nil {
		return nil, err
	}
	units := pl.makeUnits(kept)
	workers := make([]*worker, max(1, min(pl.opt.Workers, len(units))))
	merged := false
	defer func() {
		// Only the first worker's state, with everything merged into it,
		// leaves the scan; every other state is done with on every return.
		for i, w := range workers {
			if w != nil && !(merged && i == 0) {
				w.st.Release()
			}
		}
	}()
	for i := range workers {
		st, err := pl.newState()
		if err != nil {
			return nil, err
		}
		workers[i] = &worker{st: st, key: make([]byte, 4*len(pl.dims))}
	}
	if err := pl.runWorkers(ctx, workers, kept, units); err != nil {
		return nil, err
	}

	total := workers[0].st
	var sum Stats
	t0 := time.Now()
	for i, w := range workers {
		sum.Add(&w.stats)
		if i > 0 {
			if err := total.Merge(w.st); err != nil {
				return nil, err
			}
		}
	}
	for _, part := range hits {
		if err := total.MergePartial(part); err != nil {
			return nil, err
		}
	}
	// Attribute per-phase time as a wall-clock estimate: the sum across
	// workers divided by the worker count.
	sum.ScanNS /= int64(len(workers))
	sum.AggNS /= int64(len(workers))
	sum.AggNS += time.Since(t0).Nanoseconds()
	rs.stats.Add(&sum)
	merged = true
	return total, nil
}

// runWorkers drains the unit queue with one goroutine per worker (the
// calling goroutine is the first, so a serial scan spawns none) and returns
// the first reason a worker stopped early.
func (pl *plan) runWorkers(ctx context.Context, workers []*worker, kept []execSeg, units []morsel) error {
	queue := make(chan morsel, len(units))
	for _, m := range units {
		queue <- m
	}
	close(queue)
	drain := func(w *worker) {
		for m := range queue {
			if w.err = pl.runUnit(ctx, w, kept[m.si], m); w.err != nil {
				return
			}
		}
	}
	var wg sync.WaitGroup
	for _, w := range workers[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain(w)
		}()
	}
	drain(workers[0])
	wg.Wait()
	for _, w := range workers {
		if w.err != nil {
			return w.err
		}
	}
	return nil
}

// runUnit scans one unit into the worker's state. A tail morsel goes
// straight through the plan's kernel. A whole sealed cache-miss segment is
// scanned batch by batch into a scratch state first, so that its partial
// can be captured in isolation and installed in the aggregate cache before
// the scratch folds into the worker's state; a scan cancelled between
// batches installs nothing.
func (pl *plan) runUnit(ctx context.Context, w *worker, es execSeg, m morsel) error {
	if !m.whole {
		if err := ctx.Err(); err != nil {
			return err
		}
		pl.kernel(w, w.st, es, m.lo, m.hi)
		return nil
	}
	scratch, err := pl.newState()
	if err != nil {
		return err
	}
	defer scratch.Release()
	for lo := 0; lo < es.sv.N; lo += pl.opt.BatchRows {
		if err := ctx.Err(); err != nil {
			return err
		}
		pl.kernel(w, scratch, es, lo, min(lo+pl.opt.BatchRows, es.sv.N))
	}
	t0 := time.Now()
	part := scratch.Capture()
	pl.eng.aggCache.put(es.key, part, part.Bytes())
	err = w.st.Merge(scratch)
	w.stats.AggNS += time.Since(t0).Nanoseconds()
	return err
}

// processMorselColumnar is the vector-based column-wise kernel (§4.1): it
// runs phases 2 and 3 for one morsel — selection-vector refinement,
// measure-index generation, and measure aggregation — into st. All row
// indexes are segment-local; the segment's bound state supplies the arrays.
func (pl *plan) processMorselColumnar(w *worker, st *agg.State, es execSeg, lo, hi int) {
	t0 := time.Now()
	w.stats.RowsScanned += int64(hi - lo)
	bound := es.st

	// Phase 2a: scan-and-filter with a shrinking selection vector: the
	// ascending row ids of the tuples that have survived predicate evaluation
	// so far. Unlike bitmap-based scans, which evaluate every column
	// completely and combine bitmaps, a selection vector shrinks after each
	// predicate, so later columns are only probed at surviving positions —
	// saving memory bandwidth and, under AIR, random lookups.
	sel := w.sel[:0]
	if del := es.sv.Del; del == nil {
		for r := lo; r < hi; r++ {
			sel = append(sel, int32(r))
		}
	} else {
		for r := lo; r < hi; r++ {
			if !del.Get(r) {
				sel = append(sel, int32(r))
			}
		}
	}
	for i := range bound.filters {
		if len(sel) == 0 {
			break
		}
		f := &bound.filters[i]
		if f.filt != nil {
			sel = f.filt(sel)
		} else {
			sel = filterProbe(w, f, sel)
		}
	}

	// Phase 2b (array backend): grouping — compute the measure index. For
	// the hash backend, grouping (bucket location) is aggregation work and
	// is accounted to phase 3, matching the paper's Fig. 10 stage split.
	if pl.useArray {
		arr := st.Array()
		sel = groupArray(w, arr, bound, sel)
		w.sel = sel
		w.stats.RowsSelected += int64(len(sel))
		w.stats.ScanNS += time.Since(t0).Nanoseconds()

		t1 := time.Now()
		aggregateArray(w, arr, bound, sel)
		w.stats.AggNS += time.Since(t1).Nanoseconds()
		return
	}
	w.stats.ScanNS += time.Since(t0).Nanoseconds()

	// Phase 3 (hash backend): grouping and aggregation.
	t1 := time.Now()
	h := st.Hash()
	sel = groupHash(w, h, bound, sel)
	w.sel = sel
	w.stats.RowsSelected += int64(len(sel))
	aggregateHash(w, h, bound, sel)
	w.stats.AggNS += time.Since(t1).Nanoseconds()
}

// filterProbe refines the selection vector through one probe filter,
// following the AIR chain and testing the predicate vector bit (or the
// direct matcher).
func filterProbe(w *worker, f *boundFilter, sel []int32) []int32 {
	out := sel[:0]
	if f.keys != nil {
		// FoR FK chunk: the selected keys are read in place, then probed.
		w.ints = f.keys.Gather(w.ints, sel)
		if vec := f.probe.vec; vec != nil && len(f.probe.dimFKs) == 0 {
			for j, k := range w.ints {
				if vec.Get(int(k)) {
					out = append(out, sel[j])
				}
			}
			return out
		}
		for j, k := range w.ints {
			if f.probe.passValue(int32(k)) {
				out = append(out, sel[j])
			}
		}
		return out
	}
	if f.runEnd != nil {
		// Run-at-a-time kernel over an RLE FK chunk: verdicts were
		// computed per run at bind time; the (ascending) selection vector
		// is walked with a forward-only run cursor, local to this call so
		// the binding stays safe across the execution's concurrent workers.
		end, pass := f.runEnd, f.runPass
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
	if f.probe.vec != nil && len(f.probe.dimFKs) == 0 {
		fk := f.fk0
		vec := f.probe.vec
		for _, r := range sel {
			if vec.Get(int(fk[r])) {
				out = append(out, r)
			}
		}
		return out
	}
	for _, r := range sel {
		if f.keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// groupArray fills the measure index with flat aggregation-array cell
// indexes, processing one grouping column at a time (column-wise grouping,
// Fig. 6). Rows whose group vector entry is null are dropped from the
// selection vector.
func groupArray(w *worker, arr *agg.ArrayAgg, st *segState, sel []int32) []int32 {
	if cap(w.mi) < len(sel) {
		w.mi = make([]int32, len(sel))
	}
	mi := w.mi[:len(sel)]
	for j := range mi {
		mi[j] = 0
	}
	mult := arr.Mult()
	dead := false
	for k := range st.dims {
		dead = accumulateDim(w, &st.dims[k], sel, mi, mult[k]) || dead
	}
	if dead {
		keep := sel[:0]
		km := mi[:0]
		for j, f := range mi {
			if f >= 0 {
				keep = append(keep, sel[j])
				km = append(km, f)
			}
		}
		sel = keep
		mi = km
	}
	w.mi = mi
	for _, f := range mi {
		arr.AddRow(f)
	}
	return sel
}

// accumulateDim folds one grouping column's dense ids into the measure
// index. Returns true if any row hit a null group (marked -1).
func accumulateDim(w *worker, b *boundDim, sel []int32, mi []int32, mult int32) bool {
	d := b.d
	dead := false
	switch {
	case b.runEnd != nil:
		// RLE chunk, any kind: one id per run, and a run cursor that
		// advances for every selected row (sel is ascending), independent
		// of the null check; it is local to this call, so the binding stays
		// safe across the execution's concurrent workers.
		ids, end := b.runIDs, b.runEnd
		ri := 0
		for j, r := range sel {
			for end[ri] <= r {
				ri++
			}
			if mi[j] < 0 {
				continue
			}
			if id := ids[ri]; id >= 0 {
				mi[j] += id * mult
			} else {
				mi[j] = -1
				dead = true
			}
		}
		return dead
	case b.keys != nil:
		// FoR chunk (a leaf's FK or a root number): the selected values are
		// read in place.
		w.ints = b.keys.Gather(w.ints, sel)
		for j, k := range w.ints {
			if mi[j] < 0 {
				continue
			}
			id := int32(k - d.base)
			if d.kind == gdLeafVec {
				id = d.leafID(int32(k))
			}
			if id >= 0 {
				mi[j] += id * mult
			} else {
				mi[j] = -1
				dead = true
			}
		}
		return dead
	}
	switch d.kind {
	case gdLeafVec:
		if len(d.dimFKs) == 0 {
			fk := b.fk0
			vec := d.vec
			for j, r := range sel {
				if mi[j] < 0 {
					continue
				}
				id := vec[fk[r]]
				if id < 0 {
					mi[j] = -1
					dead = true
					continue
				}
				mi[j] += id * mult
			}
			return dead
		}
		for j, r := range sel {
			if mi[j] < 0 {
				continue
			}
			id := d.leafID(b.fk0[r])
			if id < 0 {
				mi[j] = -1
				dead = true
				continue
			}
			mi[j] += id * mult
		}
	case gdRootDict:
		codes := b.codes
		for j, r := range sel {
			if mi[j] >= 0 {
				mi[j] += codes[r] * mult
			}
		}
	default: // gdRootNum
		switch {
		case b.i32 != nil:
			v := b.i32
			base := int32(d.base)
			for j, r := range sel {
				if mi[j] >= 0 {
					mi[j] += (v[r] - base) * mult
				}
			}
		case b.i64 != nil:
			v := b.i64
			for j, r := range sel {
				if mi[j] >= 0 {
					mi[j] += int32(v[r]-d.base) * mult
				}
			}
		default:
			v := b.f64
			for j, r := range sel {
				if mi[j] >= 0 {
					mi[j] += int32(int64(v[r])-d.base) * mult
				}
			}
		}
	}
	return dead
}

// groupHash assigns each selected row its hash-aggregation cell, keyed by
// the packed dense group ids (stable across workers, so partials merge).
// The ids are computed one grouping column at a time, by groupArray's
// per-column loops (column-wise grouping, Fig. 6), into w.mi: column k's
// ids for the n selected rows at [k*n, (k+1)*n).
func groupHash(w *worker, h *agg.HashAgg, st *segState, sel []int32) []int32 {
	n := len(sel)
	if cap(w.mi) < n*len(st.dims) {
		w.mi = make([]int32, n*len(st.dims))
	}
	ids := w.mi[:n*len(st.dims)]
	clear(ids)
	for k := range st.dims {
		accumulateDim(w, &st.dims[k], sel, ids[k*n:(k+1)*n], 1)
	}
	if cap(w.cells) < n {
		w.cells = make([]*agg.Cell, n)
	}
	cells := w.cells[:n]
	key := w.key
	out := sel[:0]
	kept := cells[:0]
	for j, r := range sel {
		ok := true
		for k := range st.dims {
			id := ids[k*n+j]
			if id < 0 {
				ok = false
				break
			}
			agg.PutGroupID(key, k, id)
		}
		if !ok {
			continue
		}
		c := h.Upsert(key)
		c.Count++
		out = append(out, r)
		kept = append(kept, c)
	}
	w.cells = cells[:len(kept)]
	copy(w.cells, kept)
	return out
}

// aggregateArray is phase 3 over the aggregation array: each measure column
// is scanned only at the positions recorded in the measure index.
func aggregateArray(w *worker, arr *agg.ArrayAgg, st *segState, sel []int32) {
	mi := w.mi
	for k := range st.aggs {
		ba := &st.aggs[k]
		if ba.ap.agg.Expr == nil {
			continue // COUNT(*): counts were maintained in groupArray
		}
		vals := arr.Vals(k)
		switch ba.ap.kind {
		case expr.Sum, expr.Avg:
			if ba.sumLoop(w, vals, sel, mi) {
				continue
			}
			ev := ba.eval
			for j, r := range sel {
				vals[mi[j]] += ev(r)
			}
		case expr.Min:
			ev := ba.eval
			for j, r := range sel {
				if v := ev(r); v < vals[mi[j]] {
					vals[mi[j]] = v
				}
			}
		case expr.Max:
			ev := ba.eval
			for j, r := range sel {
				if v := ev(r); v > vals[mi[j]] {
					vals[mi[j]] = v
				}
			}
		case expr.Count:
			// COUNT(expr) without nulls equals COUNT(*).
		}
	}
}

// sumLoop runs the recognized dense fast path for Sum/Avg accumulation,
// returning false when the expression shape or column types are not
// specialized.
func (ba *boundAgg) sumLoop(w *worker, vals []float64, sel, mi []int32) bool {
	if !ba.fast {
		return false
	}
	if ba.encA != nil {
		ba.sumEncoded(w, vals, sel, mi)
		return true
	}
	switch ba.ap.form {
	case expr.FCol:
		switch {
		case ba.aI64 != nil:
			a := ba.aI64
			for j, r := range sel {
				vals[mi[j]] += float64(a[r])
			}
		case ba.aI32 != nil:
			a := ba.aI32
			for j, r := range sel {
				vals[mi[j]] += float64(a[r])
			}
		case ba.aF64 != nil:
			a := ba.aF64
			for j, r := range sel {
				vals[mi[j]] += a[r]
			}
		default:
			return false
		}
	case expr.FMulCols:
		switch {
		case ba.aI64 != nil && ba.bI32 != nil:
			a, b := ba.aI64, ba.bI32
			for j, r := range sel {
				vals[mi[j]] += float64(a[r] * int64(b[r]))
			}
		case ba.aI64 != nil && ba.bI64 != nil:
			a, b := ba.aI64, ba.bI64
			for j, r := range sel {
				vals[mi[j]] += float64(a[r] * b[r])
			}
		case ba.aI32 != nil && ba.bI32 != nil:
			a, b := ba.aI32, ba.bI32
			for j, r := range sel {
				vals[mi[j]] += float64(int64(a[r]) * int64(b[r]))
			}
		case ba.aF64 != nil && ba.bF64 != nil:
			a, b := ba.aF64, ba.bF64
			for j, r := range sel {
				vals[mi[j]] += a[r] * b[r]
			}
		default:
			return false
		}
	case expr.FSubCols:
		switch {
		case ba.aI64 != nil && ba.bI64 != nil:
			a, b := ba.aI64, ba.bI64
			for j, r := range sel {
				vals[mi[j]] += float64(a[r] - b[r])
			}
		case ba.aI32 != nil && ba.bI32 != nil:
			a, b := ba.aI32, ba.bI32
			for j, r := range sel {
				vals[mi[j]] += float64(a[r] - b[r])
			}
		default:
			return false
		}
	case expr.FMulOneMinus:
		switch {
		case ba.aF64 != nil && ba.bF64 != nil:
			a, b := ba.aF64, ba.bF64
			for j, r := range sel {
				vals[mi[j]] += a[r] * (1 - b[r])
			}
		case ba.aI64 != nil && ba.bF64 != nil:
			a, b := ba.aI64, ba.bF64
			for j, r := range sel {
				vals[mi[j]] += float64(a[r]) * (1 - b[r])
			}
		default:
			return false
		}
	default:
		return false
	}
	return true
}

// sumEncoded is sumLoop's one arm per form for integer operands of which at
// least one is encoded: each operand is read at the selected rows into the
// worker's scratch (a FoR chunk in place, an RLE chunk by run cursor) and
// the sum runs over that.
func (ba *boundAgg) sumEncoded(w *worker, vals []float64, sel, mi []int32) {
	w.ints = gatherInts(w.ints, ba.encA, sel)
	a := w.ints
	if ba.encB != nil {
		w.ints2 = gatherInts(w.ints2, ba.encB, sel)
	}
	b := w.ints2
	switch ba.ap.form {
	case expr.FCol:
		for j, x := range a {
			vals[mi[j]] += float64(x)
		}
	case expr.FMulCols:
		for j, x := range a {
			vals[mi[j]] += float64(x * b[j])
		}
	case expr.FSubCols:
		for j, x := range a {
			vals[mi[j]] += float64(x - b[j])
		}
	}
}

// gatherInts reads integer chunk c at the rows of selection vector sel
// (ascending) into dst, reusing its storage: a FoR chunk in place, an RLE
// chunk with a run cursor, a plain chunk directly.
func gatherInts(dst []int64, c storage.Column, sel []int32) []int64 {
	if f, ok := c.(*storage.FoRCol); ok {
		return f.Gather(dst, sel)
	}
	dst = slices.Grow(dst[:0], len(sel))[:len(sel)]
	switch c := c.(type) {
	case *storage.Int32Col:
		for j, r := range sel {
			dst[j] = int64(c.V[r])
		}
	case *storage.Int64Col:
		for j, r := range sel {
			dst[j] = c.V[r]
		}
	case *storage.RLECol:
		ri := 0
		for j, r := range sel {
			for c.End[ri] <= r {
				ri++
			}
			dst[j], _ = storage.Int64At(c.Vals, ri)
		}
	}
	return dst
}

// aggregateHash is phase 3 over the hash backend.
func aggregateHash(w *worker, h *agg.HashAgg, st *segState, sel []int32) {
	kinds := h.Kinds()
	for k := range st.aggs {
		ba := &st.aggs[k]
		if ba.ap.agg.Expr == nil {
			continue
		}
		ev := ba.eval
		cells := w.cells
		switch ba.ap.kind {
		case expr.Sum, expr.Avg:
			for j, r := range sel {
				cells[j].Vals[k] += ev(r)
			}
		default:
			for j, r := range sel {
				cells[j].Update(kinds, k, ev(r))
			}
		}
	}
}

// finalize converts the merged aggregation state into an ordered result:
// decode every group's dense ids back to group-by values, sort, truncate.
func (pl *plan) finalize(total *agg.State, rs *runState) (*query.Result, error) {
	t0 := time.Now()
	res := &query.Result{
		GroupCols: append([]string(nil), pl.q.GroupBy...),
		AggNames:  make([]string, len(pl.aggs)),
	}
	for k, ap := range pl.aggs {
		res.AggNames[k] = ap.agg.As
	}
	for ids, vals := range total.Groups {
		keys := make([]query.Value, len(pl.dims))
		for k, d := range pl.dims {
			keys[k] = d.decode(ids[k])
		}
		res.Rows = append(res.Rows, query.Row{Keys: keys, Aggs: vals})
	}
	rs.stats.Groups = len(res.Rows)

	if err := res.Sort(pl.q.OrderBy); err != nil {
		return nil, err
	}
	res.Truncate(pl.q.Limit)
	rs.stats.AggNS += time.Since(t0).Nanoseconds()
	return res, nil
}
