package baseline

import (
	"time"

	"astore/internal/agg"
	"astore/internal/query"
	"astore/internal/storage"
)

// BatchSize is the vector length of the pipelined engine, matching the
// ~1000-tuple vectors of Vectorwise.
const BatchSize = 1024

// VectorEngine executes SPJGA queries as a vectorized pipeline in the style
// of Vectorwise (and, modulo JIT, Hyper): the fact table streams through in
// BatchSize chunks; within a batch, predicates refine a small selection
// vector, dimension hash tables are probed, and survivors are folded
// straight into the aggregation hash table. No fact-length intermediate is
// ever materialized.
type VectorEngine struct {
	root *storage.Table
	// Stats of the most recent Run (Table 4 phase split; in a pipeline the
	// split is measured per batch and summed).
	Stats PhaseStats
}

// NewVectorEngine returns a vectorized pipelined engine rooted at root.
func NewVectorEngine(root *storage.Table) *VectorEngine {
	return &VectorEngine{root: root}
}

// Name implements Engine.
func (e *VectorEngine) Name() string { return "vector" }

// Run implements Engine.
func (e *VectorEngine) Run(q *query.Query) (*query.Result, error) {
	p, err := prepare(e.root, q)
	if err != nil {
		return nil, err
	}
	e.Stats = PhaseStats{}

	// Compile root predicates once; the batch loop must not redo
	// per-predicate setup (dictionary masks and the like) per vector.
	filts := make([]func(dst, sel []int32) []int32, len(p.rootPreds))
	for i, bp := range p.rootPreds {
		filts[i], err = bp.pred.Filterer(bp.col)
		if err != nil {
			return nil, err
		}
	}

	h := agg.NewHashAgg(p.kinds)
	ids := make([]int32, len(p.groups))

	n := e.root.NumRows()
	del := e.root.Deleted()
	selBuf := make([]int32, 0, BatchSize)
	posBuf := make([][]int32, len(p.dims))
	for i := range posBuf {
		posBuf[i] = make([]int32, BatchSize)
	}

	for lo := 0; lo < n; lo += BatchSize {
		hi := lo + BatchSize
		if hi > n {
			hi = n
		}
		t0 := time.Now()

		// In-batch selection vector.
		sel := selBuf[:0]
		if del == nil {
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
		for _, filt := range filts {
			if len(sel) == 0 {
				break
			}
			sel = filt(sel, sel)
		}

		// Probe each dimension hash table, compacting the selection vector
		// and the per-dimension position vectors together.
		for di, dp := range p.dims {
			if len(sel) == 0 {
				break
			}
			ht, fk := dp.ht, dp.fkVals
			w := 0
			prev := posBuf[:di]
			for ci, r := range sel {
				if bp := ht.Lookup(fk[r]); bp >= 0 {
					sel[w] = r
					posBuf[di][w] = bp
					for _, pp := range prev {
						pp[w] = pp[ci]
					}
					w++
				}
			}
			sel = sel[:w]
		}
		e.Stats.PredNS += time.Since(t0).Nanoseconds()

		// Fold survivors into the running aggregation.
		t1 := time.Now()
		for j, r := range sel {
			for di := range p.dims {
				p.pos[di] = posBuf[di][j]
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
		e.Stats.GroupNS += time.Since(t1).Nanoseconds()
	}
	return extractHash(p, q, h)
}

var _ Engine = (*VectorEngine)(nil)
