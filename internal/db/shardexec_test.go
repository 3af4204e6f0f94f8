package db

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"astore/internal/agg"
	"astore/internal/core"
	"astore/internal/query"
	"astore/internal/sql"
	"astore/internal/storage"
	"astore/internal/testutil"
)

// shardDB opens a segmented star DB for shard tests.
func shardDB(t *testing.T, seed int64, nFact int) (*DB, *storage.Table) {
	t.Helper()
	cat, fact := starCatalog(seed, nFact)
	d, err := Open(cat, core.Options{SegmentRows: 512})
	if err != nil {
		t.Fatal(err)
	}
	return d, fact
}

// TestShardSegmentsPartition: for every shard count, the canonical subsets
// are disjoint, cover every pinned view, and place all unsealed views on
// the tail-owner shard.
func TestShardSegmentsPartition(t *testing.T) {
	d, fact := shardDB(t, 31, 4000)
	// Leave an unsealed tail.
	for i := 0; i < 17; i++ {
		if _, err := fact.Insert(factRow(int32(i%8), int32(i%50), int32(i%40), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	v := d.Engine("fact").Acquire()
	defer v.Release()
	segs := v.RootSegments()
	if len(segs) < 4 {
		t.Fatalf("fixture too small: %d segments", len(segs))
	}
	for n := 1; n <= 6; n++ {
		seen := make(map[uint64]int)
		total := 0
		for s := 0; s < n; s++ {
			sub := ShardSegments(segs, s, n)
			total += len(sub)
			for i := range sub {
				if prev, dup := seen[sub[i].ID]; dup {
					t.Fatalf("n=%d: segment owned by shards %d and %d", n, prev, s)
				}
				seen[sub[i].ID] = s
				if !sub[i].Sealed && s != TailOwnerShard {
					t.Fatalf("n=%d: unsealed view assigned to shard %d", n, s)
				}
			}
		}
		if total != len(segs) {
			t.Fatalf("n=%d: subsets cover %d of %d views", n, total, len(segs))
		}
	}
	// Out-of-range shards own nothing.
	if sub := ShardSegments(segs, 3, 2); sub != nil {
		t.Fatalf("shard 3 of 2 owns %d views", len(sub))
	}
	if sub := ShardSegments(segs, 1, 1); sub != nil {
		t.Fatalf("shard 1 of 1 owns %d views", len(sub))
	}
}

// partialTarget opens a DB sealing 512-row segments over the cell's fact
// and answers each query by executing one partial per request and merging
// them.
func partialTarget(name string, reqs ...PartialRequest) testutil.Target {
	return testutil.Target{Name: name, Open: func(t testing.TB, fact *storage.Table) func(*query.Query, testutil.Run) (*query.Result, error) {
		d, err := Open(testutil.Catalog(fact), core.Options{SegmentRows: 512})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		return func(q *query.Query, _ testutil.Run) (*query.Result, error) {
			p, err := d.Prepare(q)
			if err != nil {
				return nil, err
			}
			parts := make([]*agg.Partial, len(reqs))
			for i, req := range reqs {
				res, err := p.ExecPartial(ctx, req, nil)
				if err != nil {
					return nil, fmt.Errorf("partial %d: %w", i, err)
				}
				if res.Fact != "fact" || res.DataVersion == 0 {
					return nil, fmt.Errorf("partial %d: result meta %+v", i, res)
				}
				parts[i] = res.Partial
			}
			return p.MergePartials(ctx, parts, nil)
		}
	}}
}

// TestExecPartialMergeMatchesRun: executing the canonical shard subsets
// through the DB layer and merging returns the oracle's answer, for every
// star query and shard count, before and after deletes and appends.
func TestExecPartialMergeMatchesRun(t *testing.T) {
	var targets []testutil.Target
	for n := 1; n <= 4; n++ {
		reqs := make([]PartialRequest, n)
		for s := range reqs {
			reqs[s] = PartialRequest{Shard: s, NShards: n}
		}
		targets = append(targets, partialTarget(fmt.Sprintf("%d shards", n), reqs...))
	}
	testutil.Matrix{
		Queries:  testutil.StarQueries(),
		Fixtures: []testutil.Fixture{testutil.Star(32, 5000, 0)},
		Targets:  targets,
		Writes: []testutil.Write{{Name: "delete+append", Apply: func(fact *storage.Table) error {
			for _, r := range []int{3, 700, 701, 4321} {
				if err := fact.Delete(r); err != nil {
					return err
				}
			}
			for i := 0; i < 23; i++ {
				if _, err := fact.Insert(factRow(int32(i%8), int32(i%50), int32(i%40), int64(90+i))); err != nil {
					return err
				}
			}
			return nil
		}}},
		Render: sql.Render,
		Tol:    1e-9,
	}.Run(t)
}

// TestExecPartialVersionMismatch: a non-zero expectation that does not match
// the pinned data version fails with the typed error before any scan.
func TestExecPartialVersionMismatch(t *testing.T) {
	d, fact := shardDB(t, 33, 1000)
	p, err := d.Prepare(sumRevenueByRegion())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := p.ExecPartial(ctx, PartialRequest{NShards: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Matching expectation succeeds.
	if _, err := p.ExecPartial(ctx, PartialRequest{NShards: 1, ExpectDataVersion: res.DataVersion}, nil); err != nil {
		t.Fatalf("matching expectation rejected: %v", err)
	}
	// An append bumps the data version; the stale expectation must fail typed.
	if _, err := fact.Insert(factRow(1, 2, 3, 100)); err != nil {
		t.Fatal(err)
	}
	_, err = p.ExecPartial(ctx, PartialRequest{NShards: 1, ExpectDataVersion: res.DataVersion}, nil)
	var vm *VersionMismatchError
	if !errors.As(err, &vm) {
		t.Fatalf("stale expectation: err = %v, want *VersionMismatchError", err)
	}
	if vm.Fact != "fact" || vm.Want != res.DataVersion || vm.Got <= res.DataVersion {
		t.Fatalf("mismatch error fields: %+v", vm)
	}
	if pins := fact.Pins(); pins != 0 {
		t.Fatalf("leaked %d pins", pins)
	}
}

// TestExecPartialSelectOverride: a custom Select partition replaces the
// canonical round-robin split.
func TestExecPartialSelectOverride(t *testing.T) {
	half := func(h int) PartialRequest {
		return PartialRequest{Select: func(i int, sv *storage.SegView) bool { return i%2 == h }}
	}
	testutil.Matrix{
		Queries:  []*query.Query{sumRevenueByRegion()},
		Fixtures: []testutil.Fixture{testutil.Star(34, 3000, 0)},
		Targets:  []testutil.Target{partialTarget("", half(0), half(1))},
		Render:   sql.Render,
		Tol:      1e-9,
	}.Run(t)
}

// TestExecPartialStatsFolding: ExecPartial does not touch the DB's
// cumulative counters; AddExecStats folds exactly one execution.
func TestExecPartialStatsFolding(t *testing.T) {
	d, _ := shardDB(t, 35, 3000)
	p, err := d.Prepare(sumRevenueByRegion())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base := d.Stats()
	var sum core.Stats
	for s := 0; s < 2; s++ {
		var st core.Stats
		if _, err := p.ExecPartial(ctx, PartialRequest{Shard: s, NShards: 2}, &st); err != nil {
			t.Fatal(err)
		}
		sum.SegmentsTotal += st.SegmentsTotal
		sum.RowsScanned += st.RowsScanned
		sum.RowsSelected += st.RowsSelected
	}
	mid := d.Stats()
	if mid.Execs != base.Execs || mid.RowsScanned != base.RowsScanned {
		t.Fatalf("ExecPartial folded into DB stats: %+v vs %+v", mid, base)
	}
	d.AddExecStats(&sum)
	after := d.Stats()
	if after.Execs != base.Execs+1 {
		t.Fatalf("Execs = %d, want %d", after.Execs, base.Execs+1)
	}
	if after.RowsScanned != base.RowsScanned+sum.RowsScanned ||
		after.SegmentsTotal != base.SegmentsTotal+sum.SegmentsTotal {
		t.Fatalf("fold mismatch: %+v", after)
	}
}
