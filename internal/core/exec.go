package core

import (
	"context"
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

	// rows is the engine's shared row numbers, read-only, as long as the
	// longest kept segment. Reused per-morsel buffers; bufs back the views
	// of bound columns (two at once: a binary aggregate's operands).
	rows []int32
	sel  []int32
	mi   []int32
	bufs [2]colBuf
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
			es.key = aggKey{plan: pl.id, seg: sv.ID}
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
	longest := 0
	for _, es := range kept {
		longest = max(longest, es.sv.N)
	}
	rows := pl.eng.rowNumbers(longest)
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
		w := &worker{st: st, rows: rows}
		w.bufs[0].rows, w.bufs[1].rows = rows, rows
		workers[i] = w
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
	//
	// No identity vector is built: over a segment without deletions the
	// first filter reads the morsel's rows [lo, hi) in order from the
	// engine's shared row numbers, which no worker writes. A segment with
	// deletions starts from its live rows, written to the worker's buffer.
	// Every filter writes its survivors to that buffer (aliasing its input
	// after the first), storing each row and advancing by its 0/1 verdict,
	// with no branch.
	if cap(w.sel) < hi-lo {
		w.sel = make([]int32, hi-lo)
	}
	buf := w.sel[:hi-lo]
	sel := w.rows[lo:hi]
	if del := es.sv.Del; del != nil {
		words, n := del.Words(), 0
		for r := lo; r < hi; r++ {
			buf[n] = int32(r)
			n += int(^words[r>>6] >> (r & 63) & 1)
		}
		sel = buf[:n]
	}
	for i := range bound.filters {
		if len(sel) == 0 {
			break
		}
		f := &bound.filters[i]
		if f.filt != nil {
			sel = f.filt(buf, sel)
		} else {
			sel = filterProbe(w, f, buf, sel)
		}
	}
	if len(bound.filters) == 0 {
		sel = append(buf[:0], sel...) // grouping compacts sel in place
	}

	// Phase 2b: grouping — the measure index of flat array cells or hash
	// slots. For the hash backend, grouping (bucket location) is
	// aggregation work and is accounted to phase 3, matching the paper's
	// Fig. 10 stage split.
	t1 := time.Now()
	if arr := st.Array(); arr != nil {
		sel = groupArray(w, arr, bound, sel)
		t1 = time.Now()
	} else {
		sel = groupHash(w, st.Hash(), bound, sel)
	}
	w.sel = sel
	w.stats.RowsSelected += int64(len(sel))
	w.stats.ScanNS += t1.Sub(t0).Nanoseconds()

	// Phase 3: aggregation.
	aggregate(w, st, bound, sel)
	w.stats.AggNS += time.Since(t1).Nanoseconds()
}

// filterProbe writes to dst the selected rows that pass one probe filter:
// the FK chunk's key at each selected row is tested against the predicate
// vector, or chased along the AIR chain to the direct matcher.
func filterProbe(w *worker, f *boundFilter, dst, sel []int32) []int32 {
	keys, idx := f.keys.view(sel, &w.bufs[0])
	if keys.i32 != nil {
		return probeKeys(f.probe, dst, sel, idx, keys.i32)
	}
	return probeKeys(f.probe, dst, sel, idx, keys.i64)
}

// probeKeys writes to dst the selected rows sel[j] whose key keys[idx[j]]
// passes probe p, under the expr.Filter contract. A probe's index is the
// selection vector itself (a plain FK chunk) or 0…n−1 over gathered keys
// (FoR; an RLE FK chunk binds as a filterer instead): ascending either way,
// so it is one contiguous run exactly when its last entry less its first is
// its length less one. The predicate-vector loops, the kernel loops that
// run at the full row rate, use that: a run's keys are read in order (every
// FoR probe, and a morsel's first filter over a plain FK chunk), and
// otherwise an index that is the selection vector is the row itself.
func probeKeys[K int32 | int64](p *probeFilter, dst, sel, idx []int32, keys []K) []int32 {
	out, n := dst[:len(idx)], 0
	if vec := p.vec; vec != nil && len(p.dimFKs) == 0 {
		words := vec.Words()
		if m := len(idx); m > 0 && int(idx[m-1]-idx[0]) == m-1 {
			sel = sel[:m]
			for j, k := range keys[idx[0]:][:m] {
				out[n] = sel[j]
				n += int(words[uint(k)>>6] >> (uint(k) & 63) & 1)
			}
			return out[:n]
		}
		for _, r := range idx {
			k := uint(keys[r])
			out[n] = r
			n += int(words[k>>6] >> (k & 63) & 1)
		}
		return out[:n]
	}
	sel = sel[:len(idx)]
	for j, x := range idx {
		out[n] = sel[j]
		n += storage.Bit(p.passValue(int32(keys[x])))
	}
	return out[:n]
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
	vals, idx := b.col.view(sel, &w.bufs[0])
	switch {
	case b.leaf && vals.i32 != nil:
		return leafIDs(b.d, vals.i32, idx, mi, mult)
	case b.leaf:
		return leafIDs(b.d, vals.i64, idx, mi, mult)
	case vals.i32 != nil:
		return numIDs(vals.i32, b.base, idx, mi, mult)
	}
	return numIDs(vals.i64, b.base, idx, mi, mult)
}

// leafIDs adds, for each row still live in mi, mult times the group id of
// its key's leaf row: the group vector entry at the end of the AIR chain.
func leafIDs[K int32 | int64](d *groupDim, keys []K, idx, mi []int32, mult int32) (dead bool) {
	vec, hops := d.vec, d.dimFKs
	for j, x := range idx {
		if mi[j] < 0 {
			continue
		}
		k := int32(keys[x])
		for _, fk := range hops {
			k = fk[k]
		}
		if id := vec[k]; id >= 0 {
			mi[j] += id * mult
		} else {
			mi[j], dead = -1, true
		}
	}
	return dead
}

// numIDs adds, for each row still live in mi, mult times the group id
// value − base of its value.
func numIDs[T int32 | int64](vals []T, base int64, idx, mi []int32, mult int32) (dead bool) {
	for j, x := range idx {
		if mi[j] < 0 {
			continue
		}
		if id := int32(int64(vals[x]) - base); id >= 0 {
			mi[j] += id * mult
		} else {
			mi[j], dead = -1, true
		}
	}
	return dead
}

// groupHash fills the measure index with hash slots, keyed by the dense
// group ids (stable across workers, so partials merge). The ids are
// computed one grouping column at a time, by groupArray's per-column loops
// (column-wise grouping, Fig. 6): column k's ids for the n selected rows at
// ids[k*n : (k+1)*n]. Rows whose group vector entry is null are dropped
// from the selection vector.
func groupHash(w *worker, h *agg.HashAgg, st *segState, sel []int32) []int32 {
	n, nd := len(sel), len(st.dims)
	if cap(w.mi) < n*(nd+1)+nd {
		w.mi = make([]int32, n*(nd+1)+nd)
	}
	mi, ids, row := w.mi[:0], w.mi[n:n*(nd+1)], w.mi[n*(nd+1):n*(nd+1)+nd]
	clear(ids)
	for k := range st.dims {
		accumulateDim(w, &st.dims[k], sel, ids[k*n:(k+1)*n], 1)
	}
	out := sel[:0]
rows:
	for j, r := range sel {
		for k := range row {
			if row[k] = ids[k*n+j]; row[k] < 0 {
				continue rows
			}
		}
		s := h.Slot(row)
		h.AddRow(s)
		out = append(out, r)
		mi = append(mi, s)
	}
	w.mi = mi
	return out
}

// aggregate is phase 3 on either backend: each measure column is scanned
// only at the positions recorded in the measure index, and folded into the
// cells it names.
func aggregate(w *worker, st *agg.State, bound *segState, sel []int32) {
	mi := w.mi
	for k := range bound.aggs {
		ba := &bound.aggs[k]
		if ba.ap.agg.Expr == nil {
			continue // COUNT(*): counts were maintained in grouping
		}
		vals := st.Vals(k)
		switch ba.ap.kind {
		case expr.Sum, expr.Avg:
			if ba.fast {
				ba.sum(w, vals, sel, mi)
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

// number is the element type of a bound column's values.
type number interface{ int32 | int64 | float64 }

// sum accumulates the aggregate's recognized form at the selected rows:
// each operand is viewed at sel, and sumOf runs over the views' element
// types.
func (ba *boundAgg) sum(w *worker, vals []float64, sel, mi []int32) {
	a, ia := ba.a.view(sel, &w.bufs[0])
	b, ib := ba.b.view(sel, &w.bufs[1])
	switch {
	case a.i32 != nil:
		sumOver(ba.ap.form, vals, mi, a.i32, ia, b, ib)
	case a.i64 != nil:
		sumOver(ba.ap.form, vals, mi, a.i64, ia, b, ib)
	default:
		sumOver(ba.ap.form, vals, mi, a.f64, ia, b, ib)
	}
}

// sumOver dispatches on the second operand's element type.
func sumOver[A number](form expr.Form, vals []float64, mi []int32, a []A, ia []int32, b boundCol, ib []int32) {
	switch {
	case b.i32 != nil:
		sumOf(form, vals, mi, a, ia, b.i32, ib)
	case b.i64 != nil:
		sumOf(form, vals, mi, a, ia, b.i64, ib)
	default:
		sumOf(form, vals, mi, a, ia, b.f64, ib)
	}
}

// sumOf is the SUM loop of each recognized form: the j-th selected row adds
// its value, a[ia[j]] combined with b[ib[j]], into aggregation cell mi[j].
// Operands are combined as float64, as the generic evaluator does.
func sumOf[A, B number](form expr.Form, vals []float64, mi []int32, a []A, ia []int32, b []B, ib []int32) {
	ia = ia[:len(mi)]
	switch form {
	case expr.FCol:
		for j, m := range mi {
			vals[m] += float64(a[ia[j]])
		}
	case expr.FMulCols:
		ib = ib[:len(mi)]
		for j, m := range mi {
			vals[m] += float64(a[ia[j]]) * float64(b[ib[j]])
		}
	case expr.FSubCols:
		ib = ib[:len(mi)]
		for j, m := range mi {
			vals[m] += float64(a[ia[j]]) - float64(b[ib[j]])
		}
	case expr.FMulOneMinus:
		ib = ib[:len(mi)]
		for j, m := range mi {
			vals[m] += float64(a[ia[j]]) * (1 - float64(b[ib[j]]))
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
