package db

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"astore/internal/baseline"
	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/query"
	"astore/internal/storage"
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
	d.SetPlanCacheCap(32)
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
// chunk written in place instead of cloned keeps its epoch, so the stale
// cached partial would answer.
func TestRepeatAfterDeleteInEncodedSegment(t *testing.T) {
	writes := []struct {
		name  string
		apply func(tab *storage.Table, row int) error
	}{
		{"delete", func(tab *storage.Table, row int) error { return tab.Delete(row) }},
		// Moves the row into Q1.1's filter range and out of Q1.2's and Q1.3's.
		{"update", func(tab *storage.Table, row int) error {
			if err := tab.Update(row, "lo_quantity", int32(1+row%24)); err != nil {
				return err
			}
			return tab.Update(row, "lo_discount", int32(1+row%3))
		}},
	}
	for _, layout := range []string{"plain", "encoded"} {
		for _, w := range writes {
			t.Run(layout+"/"+w.name, func(t *testing.T) { repeatAfterWrite(t, layout == "encoded", w.apply) })
		}
	}
}

func repeatAfterWrite(t *testing.T, encoded bool, write func(tab *storage.Table, row int) error) {
	cfg := ssb.Config{SF: 0.005, Seed: 3}
	served, flat := ssb.Generate(cfg), ssb.Generate(cfg)
	d, err := Open(served.DB, core.Options{SegmentRows: 2048, SealedEncodings: encoded})
	if err != nil {
		t.Fatal(err)
	}
	oracle := baseline.NewHashJoinEngine(flat.Lineorder)
	ctx := context.Background()

	queries := ssb.Queries()
	prepared := make([]*Prepared, len(queries))
	before := make([]*query.Result, len(queries))
	for i, q := range queries {
		if prepared[i], err = d.Prepare(q); err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ { // cold installs the partials, warm serves them
			if before[i], err = prepared[i].Exec(ctx); err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
		}
	}

	// No sort keys, so a row sits at the same position in both copies.
	sealed, _ := served.Lineorder.SegmentCounts()
	if sealed < 2 {
		t.Fatalf("only %d sealed segments", sealed)
	}
	for row := 0; row < 2*2048; row += 3 {
		if err := write(served.Lineorder, row); err != nil {
			t.Fatal(err)
		}
		if err := write(flat.Lineorder, row); err != nil {
			t.Fatal(err)
		}
	}

	rescanned, changed := 0, 0
	for i, q := range queries {
		var st core.Stats
		got, err := prepared[i].ExecStats(ctx, &st)
		if err != nil {
			t.Fatalf("%s after write: %v", q.Name, err)
		}
		want, err := oracle.Run(q)
		if err != nil {
			t.Fatalf("%s oracle: %v", q.Name, err)
		}
		if err := query.Diff(want, got, 0); err != nil {
			t.Errorf("%s after write: %v", q.Name, err)
		}
		// Only the two segments the writes touched are re-bound and
		// re-scanned; the rest still answer from their cached partials.
		wantEncoded := 0
		if encoded {
			wantEncoded = st.AggCacheMisses
		}
		if st.AggCacheMisses > 2 || st.EncodedSegments != wantEncoded {
			t.Errorf("%s: re-scanned %d segments, %d of them encoded, want the <= 2 touched ones: %+v",
				q.Name, st.AggCacheMisses, st.EncodedSegments, st)
		}
		rescanned += st.AggCacheMisses
		if query.Diff(before[i], got, 0) != nil {
			changed++
		}
	}
	if rescanned == 0 || changed == 0 {
		t.Fatalf("the writes re-scanned %d segments and changed %d answers; the test exercised nothing", rescanned, changed)
	}
}
