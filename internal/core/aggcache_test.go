package core

import (
	"fmt"
	"strings"
	"testing"

	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/sql"
	"astore/internal/storage"
	"astore/internal/testutil"
)

// warmableQuery groups by a dimension attribute and carries one aggregate
// of every mergeable kind, so a cached partial exercises the full merge
// matrix. All measure values are small integers: sums are exact in float64
// and results compare with zero tolerance.
func warmableQuery() *query.Query {
	return query.New("warm").
		GroupByCols("d_year").
		Agg(expr.CountStar("cnt"),
			expr.SumOf(expr.C("f_val"), "sum"),
			expr.MinOf(expr.C("f_val"), "min"),
			expr.MaxOf(expr.C("f_val"), "max"),
			expr.AvgOf(expr.C("f_val"), "avg")).
		OrderAsc("d_year")
}

// warmMatrix is the matrix of warmableQuery over clusteredFact(n, 64),
// whose served copy seals segments of target rows.
func warmMatrix(t *testing.T, n, target int, targets ...testutil.Target) testutil.Matrix {
	return testutil.Matrix{
		Queries:  []*query.Query{warmableQuery()},
		Fixtures: []testutil.Fixture{testutil.Sealed("", target, func() *storage.Table { return clusteredFact(t, n, 64) })},
		Targets:  targets,
		Render:   sql.Render,
	}
}

// execFresh is execView failing t on an error.
func execFresh(t *testing.T, eng *Engine, c **Compiled, q *query.Query) (*query.Result, Stats) {
	t.Helper()
	res, stats, err := execView(eng, c, q)
	if err != nil {
		t.Fatal(err)
	}
	return res, stats
}

// TestAggCacheWarmMatchesCold: repeated executions of one compiled plan
// must return the oracle's result — the first run installs per-segment
// partials (all misses), subsequent runs merge them (all hits over sealed
// segments) — on both the array and the hash aggregation backend.
func TestAggCacheWarmMatchesCold(t *testing.T) {
	target := func(name string, v Variant) testutil.Target {
		var cold Stats
		return engineTarget(name, Options{Variant: v, Workers: 2}, func(_ *Engine, r testutil.Run, st Stats) error {
			switch {
			case r.Warm == 0 && (st.AggCacheMisses == 0 || st.AggCacheHits != 0):
				return fmt.Errorf("cold run: hits %d misses %d, want 0 hits and > 0 misses", st.AggCacheHits, st.AggCacheMisses)
			case r.Warm == 0:
				cold = st
			case st.AggCacheMisses != 0 || st.AggCacheHits != cold.AggCacheMisses:
				return fmt.Errorf("hits %d misses %d, want %d hits and 0 misses", st.AggCacheHits, st.AggCacheMisses, cold.AggCacheMisses)
			case st.RowsScanned >= cold.RowsScanned:
				return fmt.Errorf("scanned %d rows, cold scanned %d: the cache absorbed no sealed segment", st.RowsScanned, cold.RowsScanned)
			}
			return nil
		})
	}
	m := warmMatrix(t, 4000, 500,
		target("array backend", Auto),
		target("hash backend", ColWisePF), // columnar but always hash-aggregated
	)
	m.Warm = 3
	m.Run(t)
}

// TestAggCacheDisabled: a negative budget turns the cache off — every run
// scans everything and the counters stay at zero.
func TestAggCacheDisabled(t *testing.T) {
	warmMatrix(t, 2000, 250, engineTarget("", Options{AggCacheBytes: -1}, func(eng *Engine, _ testutil.Run, st Stats) error {
		if cs := eng.CacheStats(); st.AggCacheHits != 0 || st.AggCacheMisses != 0 || cs.AggEntries != 0 || cs.AggBytes != 0 {
			return fmt.Errorf("disabled cache recorded hits %d misses %d and holds %d entries / %d bytes",
				st.AggCacheHits, st.AggCacheMisses, cs.AggEntries, cs.AggBytes)
		}
		return nil
	})).Run(t)
}

// missesAfterWrite fails a first run after a write that recomputes no
// segment: a stale cached partial answered it.
func missesAfterWrite(_ *Engine, r testutil.Run, st Stats) error {
	if r.Written && r.Warm == 0 && st.AggCacheMisses == 0 {
		return fmt.Errorf("the first run after the write recorded no cache misses")
	}
	return nil
}

// TestAggCacheUpdateInvalidation: an update of a sealed row gives the
// segment a new id; the next execution must recompute that segment (a
// miss) and return the oracle's answer over the mutated rows.
func TestAggCacheUpdateInvalidation(t *testing.T) {
	m := warmMatrix(t, 3000, 300, engineTarget("", Options{}, missesAfterWrite))
	// A sealed row's measure moves to a new in-range value: the group sums
	// move, so serving a stale partial is observable.
	m.Writes = []testutil.Write{{Name: "update", Apply: func(fact *storage.Table) error { return fact.Update(100, "f_val", int64(96)) }}}
	m.Run(t)
}

// TestAggCacheDeleteInvalidation: a delete of a sealed row gives the
// segment a new id although, unpinned, it writes the bitmap in place — a
// stale partial would keep counting the deleted rows. Deleting a whole
// sealed segment re-captures an empty partial.
func TestAggCacheDeleteInvalidation(t *testing.T) {
	deleteRows := func(rows ...int) func(*storage.Table) error {
		return func(fact *storage.Table) error {
			for _, r := range rows {
				if err := fact.Delete(r); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var segment []int
	for r := 600; r < 900; r++ {
		segment = append(segment, r)
	}
	m := warmMatrix(t, 3000, 300, engineTarget("", Options{}, missesAfterWrite))
	m.Writes = []testutil.Write{
		{Name: "delete", Apply: deleteRows(10, 11, 450, 900)},
		{Name: "delete segment", Apply: deleteRows(segment...)},
	}
	m.Run(t)
}

// TestAggCacheEvictionBudget: a budget far smaller than the working set
// must evict instead of growing, keep byte accounting within budget, and
// never change results.
func TestAggCacheEvictionBudget(t *testing.T) {
	const budget = 2048 // a handful of partials at most
	m := warmMatrix(t, 4000, 250, engineTarget("", Options{AggCacheBytes: budget}, func(eng *Engine, r testutil.Run, _ Stats) error {
		cs := eng.CacheStats()
		if cs.AggBytes > budget || (r.Warm == 3 && cs.AggEvictions == 0) {
			return fmt.Errorf("cache holds %d bytes in %d entries after %d evictions, budget %d", cs.AggBytes, cs.AggEntries, cs.AggEvictions, budget)
		}
		return nil
	}))
	m.Warm = 3
	m.Run(t)
}

// TestAggCacheTailRows: rows in the mutable tail are always computed live
// and reported as TailRows; appends grow the tail without invalidating the
// sealed segments' cached partials.
func TestAggCacheTailRows(t *testing.T) {
	var cold Stats
	m := warmMatrix(t, 2000, 300, engineTarget("", Options{}, func(_ *Engine, r testutil.Run, st Stats) error {
		switch {
		case !r.Written && st.TailRows == 0:
			return fmt.Errorf("fixture has no mutable tail")
		case !r.Written:
			cold = st
		case st.TailRows != cold.TailRows+50 || st.AggCacheMisses != 0:
			return fmt.Errorf("after 50 appends: TailRows %d, want %d; %d sealed partials invalidated", st.TailRows, cold.TailRows+50, st.AggCacheMisses)
		}
		return nil
	}))
	m.Writes = []testutil.Write{{Name: "append", Apply: func(fact *storage.Table) error {
		for i := 0; i < 50; i++ {
			if _, err := fact.Insert(map[string]any{"f_seq": 500, "f_dk": 0, "f_val": int64(3)}); err != nil {
				return err
			}
		}
		return nil
	}}}
	m.Run(t)
}

// TestAggCacheExplain: the plan rendering states whether the cache applies
// and with what budget.
func TestAggCacheExplain(t *testing.T) {
	fact := clusteredFact(t, 1000, 64)
	if err := fact.SetSegmentTarget(200); err != nil {
		t.Fatal(err)
	}
	eng, err := New(fact, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := explain(eng, warmableQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "segment agg cache: enabled, budget 64 MB") {
		t.Fatalf("Explain missing enabled cache line:\n%s", out)
	}
	off, err := New(fact, Options{AggCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	out, err = explain(off, warmableQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "segment agg cache: disabled") {
		t.Fatalf("Explain missing disabled cache line:\n%s", out)
	}
	rw, err := New(fact, Options{Variant: RowWise})
	if err != nil {
		t.Fatal(err)
	}
	out, err = explain(rw, warmableQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "segment agg cache: disabled") {
		t.Fatalf("row-wise Explain must report the cache disabled:\n%s", out)
	}
}
