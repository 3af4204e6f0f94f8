package db

import (
	"context"
	"fmt"

	"astore/internal/agg"
	"astore/internal/core"
	"astore/internal/query"
	"astore/internal/storage"
)

// Partial (shard-local) execution. A shard worker executes a prepared query
// over a deterministic subset of the fact table's segments and exports the
// raw aggregation state; the coordinator (internal/shard) merges the
// per-shard snapshots with MergePartials and folds the summed counters back
// into the DB's stats with AddExecStats, so a distributed query reports the
// same cumulative pruning and scan counters a single-node execution would.

// PartialRequest selects the segment subset and snapshot expectations of
// one shard-local execution.
type PartialRequest struct {
	// Shard/NShards pick the canonical round-robin subset (ShardSegments).
	// NShards <= 1 executes over every segment: the one-shard case.
	Shard, NShards int

	// Select, when non-nil, overrides the canonical partition: it is called
	// once per pinned root segment view (in segment order) and keeps the
	// views it returns true for. Used by partition-property tests.
	Select func(i int, sv *storage.SegView) bool

	// ExpectDataVersion, when non-zero, requires the pinned fact table
	// snapshot to sit at exactly this data version; any other version fails
	// with *VersionMismatchError before any scan work. Zero accepts
	// whatever version the pin observes (the version is reported back).
	ExpectDataVersion uint64
}

// PartialResult is one shard-local execution's exportable state: the
// captured aggregation snapshot plus the snapshot versions the coordinator
// needs to validate its (shard → data_version) vector.
type PartialResult struct {
	Fact          string
	SchemaVersion uint64
	DataVersion   uint64
	Partial       *agg.Partial
	Stats         core.Stats
}

// VersionMismatchError reports a pin that landed on a different fact-table
// data version than the coordinator's vector expected.
type VersionMismatchError struct {
	Fact string
	Want uint64
	Got  uint64
}

func (e *VersionMismatchError) Error() string {
	return fmt.Sprintf("db: fact %s pinned at data version %d, coordinator expected %d", e.Fact, e.Got, e.Want)
}

// ExecPartial executes the prepared query over the requested segment subset
// of a freshly pinned snapshot and captures the raw aggregation state. The
// pin is released on every path; plan compilation goes through the shared
// plan cache. Unlike ExecStats it does not fold counters into the DB's
// cumulative stats — the coordinator folds the whole distributed execution
// once via AddExecStats.
func (p *Prepared) ExecPartial(ctx context.Context, req PartialRequest, stats *core.Stats) (*PartialResult, error) {
	var local core.Stats
	if stats == nil {
		stats = &local
	}
	var res *PartialResult
	err := p.withPlan(ctx, func(view *core.View, c *core.Compiled, hit bool) error {
		vers := view.Versions()[p.fact]
		if req.ExpectDataVersion != 0 && vers.Data != req.ExpectDataVersion {
			return &VersionMismatchError{Fact: p.fact, Want: req.ExpectDataVersion, Got: vers.Data}
		}
		part, err := p.eng.ExecPartial(ctx, view, c, req.subset(view.RootSegments()), stats)
		if err != nil {
			return err
		}
		stats.PlanHit = hit
		res = &PartialResult{
			Fact:          p.fact,
			SchemaVersion: vers.Schema,
			DataVersion:   vers.Data,
			Partial:       part,
			Stats:         *stats,
		}
		return nil
	})
	return res, err
}

// subset applies the request's segment selection to the pinned views.
func (req PartialRequest) subset(segs []storage.SegView) []storage.SegView {
	if req.Select != nil {
		out := make([]storage.SegView, 0, len(segs))
		for i := range segs {
			if req.Select(i, &segs[i]) {
				out = append(out, segs[i])
			}
		}
		return out
	}
	return ShardSegments(segs, req.Shard, req.NShards)
}

// TailOwnerShard is the shard that owns the unsealed segment view, the
// table's mutable tail. Appends route to this shard so exactly one worker
// scans live rows.
const TailOwnerShard = 0

// ShardSegments returns the canonical segment subset shard (0-based) owns
// out of n: sealed segments are dealt round-robin by sealed ordinal, and
// unsealed views belong to TailOwnerShard. The partition is deterministic
// for a pinned view and stable across appends — a sealed segment's ordinal
// never changes while the table grows, so only the freshly sealed tail
// moves between shards. Out-of-range shards own nothing.
func ShardSegments(segs []storage.SegView, shard, n int) []storage.SegView {
	if n <= 1 {
		if shard == 0 {
			return segs
		}
		return nil
	}
	if shard < 0 || shard >= n {
		return nil
	}
	out := make([]storage.SegView, 0, len(segs)/n+2)
	sealed := 0
	for i := range segs {
		owner := TailOwnerShard
		if segs[i].Sealed {
			owner = sealed % n
			sealed++
		}
		if owner == shard {
			out = append(out, segs[i])
		}
	}
	return out
}

// MergePartials merges per-shard snapshots of the statement's plan and
// finalizes them into an ordered result, under a fresh pin so the
// dimension decode matches the plan the workers executed. The merge-side
// counters (merge time, group count) land in stats; cumulative DB counters
// are the coordinator's job (AddExecStats).
func (p *Prepared) MergePartials(ctx context.Context, parts []*agg.Partial, stats *core.Stats) (*query.Result, error) {
	var res *query.Result
	err := p.withPlan(ctx, func(_ *core.View, c *core.Compiled, _ bool) (err error) {
		res, err = p.eng.MergePartials(c, parts, stats)
		return err
	})
	return res, err
}

// AddExecStats counts one distributed execution in the DB's cumulative
// serving stats: the coordinator sums the per-shard counters (plus its
// merge-side counters) and folds them here exactly once per query, so
// /v1/stats reports the same totals a single-node execution of the same
// query would.
func (d *DB) AddExecStats(stats *core.Stats) {
	if stats == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Execs++
	d.stats.Counters.Add(&stats.Counters)
}
