package core

import (
	"context"
	"time"

	"astore/internal/agg"
	"astore/internal/query"
	"astore/internal/storage"
)

// Partial execution is the engine half of scatter-gather sharding: a worker
// executes a compiled plan over a subset of the root's segments and exports
// the raw aggregation state (an agg.Partial) instead of finalized rows; the
// coordinator merges the per-shard snapshots and finalizes once. Because
// partials keep raw accumulators (Avg as sum+count, Min/Max as extrema),
// merge(partial(A), partial(B)) == partial(A ∪ B) holds for any disjoint
// segment split, so the distributed result is identical to a single-node
// scan — the same algebra the per-segment aggregate cache relies on.

// ExecPartial executes a compiled plan over the given subset of the view's
// root segment views and returns the captured aggregation state. The subset
// must come from the view the plan is fresh in (v.RootSegments(), possibly
// filtered); admission still applies zone-map pruning and the per-segment
// aggregate cache to the subset. It is the same scan as Exec with a capture
// in place of the finalize, so every variant can export its state, and an
// empty (or fully pruned) subset captures an empty snapshot of the plan's
// aggregation form.
func (e *Engine) ExecPartial(ctx context.Context, v *View, c *Compiled, segs []storage.SegView, stats *Stats) (*agg.Partial, error) {
	var snap *agg.Partial
	err := c.pl.execute(ctx, segs, stats, func(total *agg.State, rs *runState) error {
		t0 := time.Now()
		snap = total.Capture()
		rs.stats.AggNS += time.Since(t0).Nanoseconds()
		rs.stats.Groups = snap.Cells()
		return nil
	})
	return snap, err
}

// MergePartials merges per-shard snapshots of one compiled plan and
// finalizes them into an ordered result — the coordinator half of
// scatter-gather execution. Every snapshot's form, aggregate kinds and
// group ids are validated against the plan's state and grouping columns;
// a mismatch (a worker compiled a different plan shape, or a corrupted
// wire decode slipped through) fails the merge rather than producing wrong
// rows. The caller must hold a view in which c is fresh, so the dimension
// decode finalize uses matches the group ids the workers produced.
func (e *Engine) MergePartials(c *Compiled, parts []*agg.Partial, stats *Stats) (*query.Result, error) {
	pl := c.pl
	rs := &runState{stats: pl.stats}
	total, err := pl.newState()
	if err != nil {
		return nil, err
	}
	defer total.Release()
	t0 := time.Now()
	for _, part := range parts {
		if part == nil {
			continue
		}
		if err := part.CheckGroups(pl.dimCards); err != nil {
			return nil, err
		}
		if err := total.MergePartial(part); err != nil {
			return nil, err
		}
	}
	rs.stats.AggNS += time.Since(t0).Nanoseconds()
	res, err := pl.finalize(total, rs)
	if err != nil {
		return nil, err
	}
	if stats != nil {
		*stats = rs.stats
	}
	return res, nil
}
