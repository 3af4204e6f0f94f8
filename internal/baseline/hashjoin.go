package baseline

import (
	"time"

	"astore/internal/agg"
	"astore/internal/query"
	"astore/internal/storage"
)

// HashJoinEngine executes SPJGA queries operator-at-a-time with fully
// materialized intermediates, in the style of MonetDB's BAT algebra:
//
//  1. every selection produces a complete bitmap over its (fact-length)
//     column, and bitmaps are combined with AND — nothing is skipped;
//  2. each join is a separate operator that consumes the current candidate
//     list and materializes the next one, together with the probed
//     dimension positions;
//  3. grouping and aggregation are hash based.
//
// Stats records the phase split used by Table 4 of the paper (predicate
// processing vs grouping-and-aggregation).
type HashJoinEngine struct {
	root *storage.Table
	// Stats of the most recent Run.
	Stats PhaseStats
}

// PhaseStats is the two-phase timing breakdown reported in Table 4.
type PhaseStats struct {
	// PredNS covers predicate processing (bitmaps / batch selection) and
	// join probing.
	PredNS int64
	// GroupNS covers grouping and aggregation.
	GroupNS int64
}

// NewHashJoinEngine returns an operator-at-a-time engine rooted at root.
func NewHashJoinEngine(root *storage.Table) *HashJoinEngine {
	return &HashJoinEngine{root: root}
}

// Name implements Engine.
func (e *HashJoinEngine) Name() string { return "hashjoin" }

// Run implements Engine.
func (e *HashJoinEngine) Run(q *query.Query) (*query.Result, error) {
	p, err := prepare(e.root, q)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()

	// Operator 1..k: full-column predicate bitmaps, AND-combined. This is
	// deliberately *not* selection-vector based: the whole column is always
	// scanned and an intermediate bitmap materialized, which is what makes
	// this engine slow on denormalized (fact-length) predicate columns.
	n := e.root.NumRows()
	sel := storage.NewBitmap(n)
	sel.SetAll()
	if del := e.root.Deleted(); del != nil {
		sel.AndNot(del)
	}
	tmp := storage.NewBitmap(n)
	for _, bp := range p.rootPreds {
		if err := bp.pred.Bitmap(bp.col, tmp); err != nil {
			return nil, err
		}
		sel.And(tmp)
	}
	cand := sel.AppendSet(nil)

	// Join operators: one materialization per dimension.
	posPerDim := make([][]int32, len(p.dims))
	for di, dp := range p.dims {
		next := cand[:0]
		pos := make([]int32, 0, len(cand))
		ht, fk := dp.ht, dp.fkVals
		if di == 0 {
			for _, r := range cand {
				if bp := ht.Lookup(fk[r]); bp >= 0 {
					next = append(next, r)
					pos = append(pos, bp)
				}
			}
		} else {
			// Also compact the previously materialized position columns.
			prev := posPerDim[:di]
			w := 0
			for ci, r := range cand {
				if bp := ht.Lookup(fk[r]); bp >= 0 {
					next = append(next, r)
					pos = append(pos, bp)
					for _, pp := range prev {
						pp[w] = pp[ci]
					}
					w++
				}
			}
			for pi := range prev {
				prev[pi] = prev[pi][:w]
			}
		}
		cand = next
		posPerDim[di] = pos
	}
	e.Stats.PredNS = time.Since(t0).Nanoseconds()

	// Grouping and aggregation (hash based).
	t1 := time.Now()
	h := agg.NewHashAgg(p.kinds)
	ids := make([]int32, len(p.groups))
	for j, r := range cand {
		for di := range p.dims {
			p.pos[di] = posPerDim[di][j]
		}
		for gi, gs := range p.groups {
			if gs.onRoot {
				ids[gi] = gs.rootID(r)
			} else {
				ids[gi] = p.dims[gs.dimIdx].ids[gs.slot][p.pos[gs.dimIdx]]
			}
		}
		s := h.Slot(ids)
		h.AddRow(s)
		for k, ev := range p.aggEvals {
			if ev != nil {
				h.Update(s, k, ev(r))
			}
		}
	}
	res, err := extractHash(p, q, h)
	e.Stats.GroupNS = time.Since(t1).Nanoseconds()
	return res, err
}

// extractHash converts a hash aggregation into an ordered result, decoding
// group ids through the prep's group sources.
func extractHash(p *prep, q *query.Query, h *agg.HashAgg) (*query.Result, error) {
	res := &query.Result{
		GroupCols: append([]string(nil), q.GroupBy...),
		AggNames:  make([]string, len(q.Aggs)),
	}
	for k, a := range q.Aggs {
		res.AggNames[k] = a.As
	}
	for ids, vals := range h.State().Groups {
		keys := make([]query.Value, len(p.groups))
		for gi, gs := range p.groups {
			keys[gi] = gs.decode(ids[gi])
		}
		res.Rows = append(res.Rows, query.Row{Keys: keys, Aggs: vals})
	}
	if err := res.Sort(q.OrderBy); err != nil {
		return nil, err
	}
	res.Truncate(q.Limit)
	return res, nil
}

var _ Engine = (*HashJoinEngine)(nil)
