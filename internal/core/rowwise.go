package core

import (
	"time"

	"astore/internal/agg"
)

// processMorselRowWise is the tuple-at-a-time kernel (the AIRScan_R and
// AIRScan_R_P variants of Table 6): each root tuple is fetched, evaluated
// against every predicate — through AIR chains, or against predicate
// vectors when the variant builds them — and fed to hash-based grouping and
// aggregation. It exists to quantify what the column-wise optimizations
// buy; everything around the kernel (planning, segment admission, morsel
// scheduling, cancellation, merge, finalize or capture) is the one shared
// driver. Row-wise variants always aggregate into a hash table
// (decideAggBackend never picks the array for them).
func (pl *plan) processMorselRowWise(w *worker, st *agg.State, es execSeg, lo, hi int) {
	bound := es.st
	del := es.sv.Del
	t0 := time.Now()
	w.stats.RowsScanned += int64(hi - lo)
	one := append(w.sel[:0], 0)
	w.sel = one
	ids := make([]int32, len(bound.dims))
	h := st.Hash()
rows:
	for r := int32(lo); r < int32(hi); r++ {
		if del != nil && del.Get(int(r)) {
			continue
		}
		for i := range bound.filters {
			f := &bound.filters[i]
			if f.probe != nil {
				if !f.probe.passValue(int32(f.keys.at(r))) {
					continue rows
				}
				continue
			}
			one[0] = r // a filterer over a one-row selection
			if len(f.filt(one, one)) == 0 {
				continue rows
			}
		}
		for k := range bound.dims {
			b := &bound.dims[k]
			if ids[k] = b.idOf(b.col.at(r)); ids[k] < 0 {
				continue rows
			}
		}
		w.stats.RowsSelected++
		s := h.Slot(ids)
		h.AddRow(s)
		for k := range bound.aggs {
			if ba := &bound.aggs[k]; ba.ap.agg.Expr != nil {
				h.Update(s, k, ba.eval(r))
			}
		}
	}
	w.stats.ScanNS += time.Since(t0).Nanoseconds()
}
