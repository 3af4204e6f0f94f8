package db

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/query"
	"astore/internal/sql"
	"astore/internal/storage"
	"astore/internal/testutil"
)

// A binding (the chunks a plan touches in one segment, plain or encoded, as
// they lie) lives for one execution. These two tests guard what caching it
// used to be responsible for: memory that tracks the data rather than the
// number of plans seen, and a correct re-scan of a sealed segment whose
// cached partial a delete or an update invalidated.

// TestAdHocPlansLeaveNoBindingsBehind: once the plan cache and the aggregate
// cache are full, 300 more never-repeated statements over a sorted, encoded
// fact table must not grow the live heap — a binding per (plan, segment)
// retained anywhere would add about a megabyte per statement here.
func TestAdHocPlansLeaveNoBindingsBehind(t *testing.T) {
	data := ssb.Generate(ssb.Config{SF: 0.01, Seed: 1})
	d, err := Open(data.DB, core.Options{
		SegmentRows:     4096,
		SealedEncodings: true,
		SortKeys:        []string{"lo_orderdate"},
		AggCacheBytes:   64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storage.Consolidate(data.DB, data.Lineorder); err != nil {
		t.Fatal(err)
	}
	d.setPlanCacheCap(32)
	ctx := context.Background()
	adhoc := func(i int) {
		t.Helper()
		text := fmt.Sprintf(`SELECT d_year, sum(lo_extendedprice * lo_discount) AS revenue, sum(lo_revenue) AS rev
FROM lineorder, date WHERE lo_orderdate = d_datekey
AND lo_quantity < %d AND lo_extendedprice > %d GROUP BY d_year ORDER BY d_year`, 20+i%30, i)
		if _, err := d.RunSQL(ctx, text); err != nil {
			t.Fatal(err)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	const warm, more = 100, 300
	for i := 0; i < warm; i++ {
		adhoc(i)
	}
	st := d.Stats()
	if st.PlanEvictions == 0 || st.AggCacheEvictions == 0 || st.EncodedSegments == 0 {
		t.Fatalf("warm-up left a cache below capacity or scanned nothing encoded: %+v", st)
	}
	start := liveHeap()
	for i := warm; i < warm+more; i++ {
		adhoc(i)
	}
	if d.Stats().PlanMisses != warm+more {
		t.Fatalf("%d plan misses for %d distinct statements", d.Stats().PlanMisses, warm+more)
	}
	const bound = 16 << 20
	end := liveHeap()
	runtime.KeepAlive(d) // the caches under measurement die with d
	t.Logf("live heap %d -> %d bytes over %d ad-hoc plans", start, end, more)
	if end > start+bound {
		t.Fatalf("live heap grew from %d to %d bytes over %d ad-hoc plans (bound %d)", start, end, more, bound)
	}
}

// TestRepeatAfterDeleteInEncodedSegment: a warm statement whose cached
// partials a write invalidates re-binds and re-scans the touched sealed
// segments and still agrees, at tolerance 0, with a hash-join engine over a
// flat copy of the same rows. It runs over plain and encoded sealed chunks,
// and for deletes and for in-place updates of Q1's filter columns: a sealed
// segment written in place instead of copied keeps its id, so the stale
// cached partial would answer.
func TestRepeatAfterDeleteInEncodedSegment(t *testing.T) {
	const segRows = 2048
	// The first run after the write re-binds and re-scans only the two
	// segments the write touched; the rest answer from cached partials.
	layout := func(name string, encoded bool) testutil.Target {
		return testutil.Target{Name: name, Open: func(t testing.TB, fact *storage.Table) func(*query.Query, testutil.Run) (*query.Result, error) {
			rescanned := 0
			t.Cleanup(func() {
				if rescanned == 0 {
					t.Error("the write re-scanned no segment; the test exercised nothing")
				}
			})
			// No sort keys, so a row sits at the same position in both copies.
			opt := core.Options{SegmentRows: segRows, SealedEncodings: encoded}
			return dbTarget("", opt, func(_ *DB, r testutil.Run, st core.Stats) error {
				if sealed, _ := fact.SegmentCounts(); sealed < 2 {
					return fmt.Errorf("only %d sealed segments", sealed)
				}
				if !r.Written || r.Warm > 0 {
					return nil
				}
				wantEncoded := int64(0)
				if encoded {
					wantEncoded = int64(st.AggCacheMisses)
				}
				if st.AggCacheMisses > 2 || st.EncodedSegments != wantEncoded {
					return fmt.Errorf("re-scanned %d segments, %d of them encoded, want the <= 2 touched ones: %+v",
						st.AggCacheMisses, st.EncodedSegments, st)
				}
				rescanned += st.AggCacheMisses
				return nil
			}).Open(t, fact)
		}}
	}
	writeRows := func(write func(tab *storage.Table, row int) error) func(*storage.Table) error {
		return func(tab *storage.Table) error {
			for row := 0; row < 2*segRows; row += 3 {
				if err := write(tab, row); err != nil {
					return err
				}
			}
			return nil
		}
	}
	testutil.Matrix{
		Queries:  ssb.Queries(),
		Fixtures: []testutil.Fixture{testutil.Sealed("", 0, func() *storage.Table { return ssb.Generate(ssb.Config{SF: 0.005, Seed: 3}).Lineorder })},
		Targets:  []testutil.Target{layout("plain", false), layout("encoded", true)},
		Writes: []testutil.Write{
			{Name: "delete", Apply: writeRows(func(tab *storage.Table, row int) error { return tab.Delete(row) })},
			// Moves the row into Q1.1's filter range and out of Q1.2's and Q1.3's.
			{Name: "update", Apply: writeRows(func(tab *storage.Table, row int) error {
				if err := tab.Update(row, "lo_quantity", int32(1+row%24)); err != nil {
					return err
				}
				return tab.Update(row, "lo_discount", int32(1+row%3))
			})},
		},
		Oracle: hashJoin,
		Render: sql.Render,
	}.Run(t)
}
