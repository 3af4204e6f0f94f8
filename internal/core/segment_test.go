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

// segmentStar builds the deterministic star fixture and converts its fact
// table to segmented storage.
func segmentStar(t *testing.T, seed int64, nFact, target int) *storage.Table {
	t.Helper()
	fact := testutil.BuildStar(seed, nFact)
	if err := fact.SetSegmentTarget(target); err != nil {
		t.Fatal(err)
	}
	return fact
}

// TestSegmentedMatchesOracleAllVariants is the differential test for the
// segment-granular executor: every scan variant over a segmented fact table
// must produce exactly the results of the brute-force oracle running over
// the flat twin (identical seed).
func TestSegmentedMatchesOracleAllVariants(t *testing.T) {
	testutil.Matrix{
		Queries:  testutil.StarQueries(),
		Fixtures: []testutil.Fixture{testutil.Star(42, 5000, 512)}, // ~10 segments
		Targets:  variantTargets(1, 4),
		Render:   sql.Render,
		Tol:      1e-9,
	}.Run(t)
}

// TestSegmentedSnowflakeMatchesOracle exercises multi-hop AIR chains over a
// segmented root.
func TestSegmentedSnowflakeMatchesOracle(t *testing.T) {
	matrix(testutil.SnowflakeQueries(), testutil.Snowflake(7, 4000, 640), variantTargets(3)...).Run(t)
}

// clusteredFact builds a fact table whose f_seq column is monotonically
// increasing (append order ≈ time order, the live-ingest shape) and whose
// f_dk FK is range-correlated with the date dimension, so both root-filter
// and FK-probe zone maps have pruning power.
func clusteredFact(t testing.TB, nFact, nDate int) *storage.Table {
	t.Helper()
	date := storage.NewTable("date")
	years := make([]int32, nDate)
	for i := range years {
		years[i] = int32(1992 + i*8/nDate) // years ascend with the index
	}
	date.MustAddColumn("d_year", storage.NewInt32Col(years))

	seq := make([]int32, nFact)
	fkD := make([]int32, nFact)
	val := make([]int64, nFact)
	for i := 0; i < nFact; i++ {
		seq[i] = int32(i)
		fkD[i] = int32(i * nDate / nFact) // correlated with append order
		val[i] = int64(i % 97)
	}
	fact := storage.NewTable("fact")
	fact.MustAddColumn("f_seq", storage.NewInt32Col(seq))
	fact.MustAddColumn("f_dk", storage.NewInt32Col(fkD))
	fact.MustAddColumn("f_val", storage.NewInt64Col(val))
	fact.MustAddFK("f_dk", date)
	return fact
}

// pruningMatrix is the matrix of q over clusteredFact(8000, 64), whose
// served copy seals 500-row segments, through one engine whose runs must
// each prune: at least one segment, and with maxKept > 0 all but maxKept.
func pruningMatrix(t *testing.T, q *query.Query, opt Options, maxKept int) testutil.Matrix {
	const nFact, target = 8000, 500
	return testutil.Matrix{
		Queries:  []*query.Query{q},
		Fixtures: []testutil.Fixture{testutil.Sealed("", target, func() *storage.Table { return clusteredFact(t, nFact, 64) })},
		Targets: []testutil.Target{engineTarget("", opt, func(_ *Engine, _ testutil.Run, st Stats) error {
			kept := st.SegmentsTotal - st.SegmentsPruned
			if st.SegmentsTotal < nFact/target || st.SegmentsPruned == 0 || (maxKept > 0 && (kept > int64(maxKept) || st.RowsScanned >= nFact)) {
				return fmt.Errorf("%d of %d segments pruned, %d rows scanned: %+v", st.SegmentsPruned, st.SegmentsTotal, st.RowsScanned, st)
			}
			return nil
		})},
		Render: sql.Render,
		Tol:    1e-9,
	}
}

// TestZoneMapPruningRootFilter asserts that a selective range predicate on
// a clustered root column skips segments — and that the pruned execution
// returns the oracle's result over the flat twin.
func TestZoneMapPruningRootFilter(t *testing.T) {
	q := query.New("narrow").
		Where(expr.IntBetween("f_seq", 1000, 1200)).
		Agg(expr.CountStar("cnt"), expr.SumOf(expr.C("f_val"), "sum"))
	// The predicate spans rows 1000–1200: at most two 500-row segments can
	// contain matches.
	pruningMatrix(t, q, Options{Workers: 2}, 2).Run(t)
}

// TestZoneMapPruningFKProbe asserts that a dimension predicate prunes
// segments through the AIR FK column's zone map when the foreign keys are
// range-correlated (the predicate vector's set bits fall outside most
// segments' FK ranges).
func TestZoneMapPruningFKProbe(t *testing.T) {
	// d_year == 1992 selects only the first chunk of date rows, reachable
	// only from the first few fact segments.
	q := query.New("dimsel").
		Where(expr.IntEq("d_year", 1992)).
		Agg(expr.CountStar("cnt"), expr.SumOf(expr.C("f_val"), "sum"))
	pruningMatrix(t, q, Options{}, 0).Run(t)
}

// TestSegmentedExplainShowsPruning checks the Explain satellite: the plan
// rendering reports per-filter and overall segment pruning decisions.
func TestSegmentedExplainShowsPruning(t *testing.T) {
	seg := clusteredFact(t, 4000, 64)
	if err := seg.SetSegmentTarget(500); err != nil {
		t.Fatal(err)
	}
	eng, err := New(seg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := query.New("explain-prune").
		Where(expr.IntBetween("f_seq", 0, 99), expr.IntEq("d_year", 1992)).
		Agg(expr.CountStar("cnt"))
	out, err := explain(eng, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "segments") {
		t.Fatalf("explain lacks segment info:\n%s", out)
	}
	if !strings.Contains(out, "after prune") {
		t.Fatalf("explain lacks per-filter prune decisions:\n%s", out)
	}
	if !strings.Contains(out, "segment admission:") {
		t.Fatalf("explain lacks admission summary:\n%s", out)
	}
}

// TestSegmentedViewExecAcrossAppends exercises the append-stable plan path
// at the engine level: a plan compiled on one view stays fresh in and
// executes correctly under later views taken after tail appends.
func TestSegmentedViewExecAcrossAppends(t *testing.T) {
	seg := clusteredFact(t, 1000, 64)
	if err := seg.SetSegmentTarget(300); err != nil {
		t.Fatal(err)
	}
	eng, err := New(seg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := query.New("count-all").Agg(expr.CountStar("cnt"), expr.SumOf(expr.C("f_val"), "sum"))

	v1 := eng.Acquire()
	c, err := v1.Compile(q)
	if err != nil {
		v1.Release()
		t.Fatal(err)
	}
	res1, err := eng.Exec(t.Context(), v1, c, nil)
	if err != nil {
		v1.Release()
		t.Fatal(err)
	}
	v1.Release()
	if got := int64(res1.Rows[0].Aggs[0]); got != 1000 {
		t.Fatalf("count at v1 = %d, want 1000", got)
	}

	// Append rows whose values stay inside the compiled ranges: the plan
	// must stay fresh and the new rows must be visible to a new view.
	for i := 0; i < 500; i++ {
		if _, err := seg.Insert(map[string]any{"f_seq": 1000 + i, "f_dk": 0, "f_val": 1}); err != nil {
			t.Fatal(err)
		}
	}
	v2 := eng.Acquire()
	defer v2.Release()
	if !c.FreshIn(v2) {
		t.Fatal("plan went stale across tail appends")
	}
	res2, err := eng.Exec(t.Context(), v2, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(res2.Rows[0].Aggs[0]); got != 1500 {
		t.Fatalf("count at v2 = %d, want 1500", got)
	}
}

// TestSegCacheBounded: copy-on-write updates replace segments under a
// long-lived plan; each round re-keys one segment's cached partial, so the
// aggregate cache must grow with rounds, not rounds x segments.
func TestSegCacheBounded(t *testing.T) {
	seg := clusteredFact(t, 2000, 64)
	if err := seg.SetSegmentTarget(200); err != nil {
		t.Fatal(err)
	}
	eng, err := New(seg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := query.New("sum").Agg(expr.SumOf(expr.C("f_val"), "sum"))
	v := eng.Acquire()
	c, err := v.Compile(q)
	if err != nil {
		v.Release()
		t.Fatal(err)
	}
	if _, err := eng.Exec(t.Context(), v, c, nil); err != nil {
		v.Release()
		t.Fatal(err)
	}
	v.Release()

	_, total0 := seg.SegmentCounts()
	for round := 0; round < 30; round++ {
		// Update a sealed row (a new segment id → a new cache key), then
		// re-execute under a fresh view.
		if err := seg.Update(round*37%1800, "f_val", int64(round%97)); err != nil {
			t.Fatal(err)
		}
		v := eng.Acquire()
		if !c.FreshIn(v) {
			v.Release()
			t.Fatal("in-range update must not stale the plan")
		}
		if _, err := eng.Exec(t.Context(), v, c, nil); err != nil {
			v.Release()
			t.Fatal(err)
		}
		v.Release()
	}
	// Each round installs one segment's partial under a new id
	// and leaves at most one stale generation behind for the LRU.
	cs := eng.CacheStats()
	if cs.AggEntries > int64(total0+30+16) {
		t.Fatalf("aggregate cache holds %d entries after 30 COW rounds over %d segments", cs.AggEntries, total0)
	}
}
