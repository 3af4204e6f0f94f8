package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"astore/internal/agg"
	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/storage"
	"astore/internal/testutil"
)

// partitionFixture is the segmented star fixture with every segment class
// present: sealed segments with deleted rows, a run of appended rows whose
// f_quantity (99) lies outside the generated range so that whole segments
// are zone-pruned by the f_quantity predicates of starQueries, and an
// unsealed tail. f_frac is rewritten to multiples of 1/128 so that every
// measure of starQueries is exact in float64: sums then do not depend on
// the order partitions are merged in, and results compare at tolerance 0.
func partitionFixture(t *testing.T, seed int64) *storage.Table {
	t.Helper()
	fact := testutil.BuildStar(seed, 5000)
	frac := fact.Column("f_frac").(*storage.Float64Col).V
	for i := range frac {
		frac[i] = float64(i%128) / 128
	}
	if err := fact.SetSegmentTarget(512); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{10, 515, 516, 1030, 4999} {
		if err := fact.Delete(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 700; i++ {
		if _, err := fact.Insert(map[string]any{
			"f_dk": i % 8, "f_ck": i % 50, "f_pk": i % 40,
			"f_quantity": 99, "f_discount": i % 11,
			"f_extprice": 100 + i, "f_revenue": 90 + i, "f_supplycost": 50 + i,
			"f_frac": float64(i%4) / 4, "f_tag": []string{"red", "green", "blue"}[i%3],
		}); err != nil {
			t.Fatal(err)
		}
	}
	return fact
}

// partitions returns the segment splits the partition law is checked over:
// the one-subset case, a split with an empty subset, the split that puts
// exactly the segments plan c zone-prunes into one subset (empty when the
// query prunes nothing), and seeded random splits.
func partitions(rng *rand.Rand, c *Compiled, segs []storage.SegView) [][][]storage.SegView {
	byPrune := make([][]storage.SegView, 2)
	for i := range segs {
		side := 0
		for fi := range c.pl.filters {
			if segs[i].N == 0 || !c.pl.filters[fi].mayMatchSegment(&segs[i]) {
				side = 1
				break
			}
		}
		byPrune[side] = append(byPrune[side], segs[i])
	}
	out := [][][]storage.SegView{{segs}, {segs, nil}, byPrune}
	for trial := 0; trial < 3; trial++ {
		subsets := make([][]storage.SegView, 2+rng.Intn(3))
		for i := range segs {
			s := rng.Intn(len(subsets))
			subsets[s] = append(subsets[s], segs[i])
		}
		out = append(out, subsets)
	}
	return out
}

// TestExecPartialMergeEqualsExec is the partition law at the engine layer,
// over every kernel and backend: for every Table 6 variant (row-wise
// included), the array and the forced-hash backend, the aggregate cache on
// and off, and every split of the pinned segment views into disjoint
// subsets, capturing one partial per subset and merging them reproduces
// the single-node result exactly, and the subsets' summed scan counters
// are the single-node counters.
func TestExecPartialMergeEqualsExec(t *testing.T) {
	fact := partitionFixture(t, 21)
	rng := rand.New(rand.NewSource(99))
	prunedSubsets := 0
	for _, variant := range allVariants() {
		for _, maxGroups := range []int{0, 1} { // 1 forces Auto onto the hash backend
			for _, cacheBytes := range []int64{0, -1} {
				eng, err := New(fact, Options{Variant: variant, Workers: 2, BatchRows: 200,
					MaxArrayGroups: maxGroups, AggCacheBytes: cacheBytes})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s maxGroups=%d aggCache=%d", variant, maxGroups, cacheBytes)
				v := eng.Acquire()
				for _, q := range testutil.StarQueries() {
					prunedSubsets += checkPartitionLaw(t, rng, eng, v, q, label)
				}
				v.Release()
			}
		}
	}
	if prunedSubsets == 0 {
		t.Fatal("no split had a non-empty, fully zone-pruned proper subset; the fixture lost its prunable segments")
	}
	if pins := fact.Pins(); pins != 0 {
		t.Fatalf("leaked %d pins", pins)
	}
}

// checkPartitionLaw checks one query over every split and returns how many
// splits contained a non-empty proper subset that admission pruned whole.
// Every execution compiles its own plan, so each starts from a cold
// aggregate cache and the scan counters are comparable.
func checkPartitionLaw(t *testing.T, rng *rand.Rand, eng *Engine, v *View, q *query.Query, label string) int {
	t.Helper()
	compile := func() *Compiled {
		c, err := v.Compile(q)
		if err != nil {
			t.Fatalf("%s [%s]: %v", q.Name, label, err)
		}
		return c
	}
	var wantStats Stats
	want, err := eng.Exec(context.Background(), v, compile(), &wantStats)
	if err != nil {
		t.Fatalf("%s [%s]: %v", q.Name, label, err)
	}
	pruned := 0
	for pi, subsets := range partitions(rng, compile(), v.RootSegments()) {
		c := compile()
		parts := make([]*agg.Partial, len(subsets))
		var sum Stats
		for s, sub := range subsets {
			var st Stats
			parts[s], err = eng.ExecPartial(context.Background(), v, c, sub, &st)
			if err != nil {
				t.Fatalf("%s [%s] split %d subset %d/%d: %v", q.Name, label, pi, s, len(subsets), err)
			}
			if len(sub) > 0 && len(sub) < len(v.RootSegments()) && st.SegmentsPruned == int64(len(sub)) {
				pruned++
			}
			sum.Add(&st)
		}
		got, err := eng.MergePartials(c, parts, nil)
		if err != nil {
			t.Fatalf("%s [%s] split %d: merge: %v", q.Name, label, pi, err)
		}
		if err := query.Diff(want, got, 0); err != nil {
			t.Fatalf("%s [%s] split %d over %d subsets: %v", q.Name, label, pi, len(subsets), err)
		}
		if sum.RowsScanned != wantStats.RowsScanned || sum.RowsSelected != wantStats.RowsSelected ||
			sum.SegmentsTotal != wantStats.SegmentsTotal || sum.SegmentsPruned != wantStats.SegmentsPruned {
			t.Fatalf("%s [%s] split %d: summed counters scanned=%d selected=%d segments=%d pruned=%d, single-node %d/%d/%d/%d",
				q.Name, label, pi, sum.RowsScanned, sum.RowsSelected, sum.SegmentsTotal, sum.SegmentsPruned,
				wantStats.RowsScanned, wantStats.RowsSelected, wantStats.SegmentsTotal, wantStats.SegmentsPruned)
		}
	}
	return pruned
}

// TestExecPartialWireRoundTrip pushes every shard partial through the wire
// encoding before merging, as the HTTP transport does.
func TestExecPartialWireRoundTrip(t *testing.T) {
	wire := testutil.Target{Open: func(t testing.TB, fact *storage.Table) func(*query.Query, testutil.Run) (*query.Result, error) {
		eng, err := New(fact, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return func(q *query.Query, _ testutil.Run) (*query.Result, error) {
			v := eng.Acquire()
			defer v.Release()
			c, err := v.Compile(q)
			if err != nil {
				return nil, err
			}
			segs := v.RootSegments()
			var parts []*agg.Partial
			for _, sub := range [][]storage.SegView{segs[:len(segs)/2], segs[len(segs)/2:]} {
				part, err := eng.ExecPartial(context.Background(), v, c, sub, nil)
				if err != nil {
					return nil, err
				}
				data, err := part.MarshalBinary()
				if err != nil {
					return nil, err
				}
				if part, err = agg.UnmarshalPartial(data); err != nil {
					return nil, err
				}
				parts = append(parts, part)
			}
			return eng.MergePartials(c, parts, nil)
		}
	}}
	matrix(testutil.StarQueries(), testutil.Star(22, 3000, 512), wire).Run(t)
}

// TestExecPartialEmptySubset captures a well-formed empty snapshot, and the
// merged result of only-empty snapshots is the empty result.
func TestExecPartialEmptySubset(t *testing.T) {
	fact := segmentStar(t, 23, 1000, 512)
	eng, err := New(fact, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := testutil.StarQueries()[0]
	v := eng.Acquire()
	defer v.Release()
	c, err := v.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	part, err := eng.ExecPartial(context.Background(), v, c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if part.Cells() != 0 || part.Rows() != 0 {
		t.Fatalf("empty subset captured %d cells / %d rows", part.Cells(), part.Rows())
	}
	res, err := eng.MergePartials(c, []*agg.Partial{part, nil}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("empty merge produced %d rows", len(res.Rows))
	}
}

// TestMergePartialsRejectsMalformedGroups: a hash-form partial whose group
// key does not hold one id per grouping column, or holds an id past its
// column's cardinality, decodes (the wire codec knows no plan) but fails
// the merge with an error instead of indexing past finalize's decode
// tables.
func TestMergePartialsRejectsMalformedGroups(t *testing.T) {
	eng, err := New(segmentStar(t, 23, 1000, 512), Options{Variant: ColWise})
	if err != nil {
		t.Fatal(err)
	}
	var q *query.Query
	for _, cand := range testutil.StarQueries() {
		allSum := len(cand.GroupBy) > 0
		for _, a := range cand.Aggs {
			allSum = allSum && a.Kind == expr.Sum
		}
		if allSum {
			q = cand
			break
		}
	}
	v := eng.Acquire()
	defer v.Release()
	c, err := v.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	// le appends the n low bytes of v, little-endian, as the wire does.
	le := func(b []byte, v uint64, n int) []byte {
		for i := 0; i < n; i++ {
			b = append(b, byte(v>>(8*i)))
		}
		return b
	}
	farID := le(nil, 1<<30, 4*len(q.GroupBy))
	for name, key := range map[string][]byte{"short key": {1, 0}, "id past cardinality": farID} {
		// One hash-form cell: the wire layout of agg/wire.go.
		wire := le(nil, 0x41535057, 4)
		wire = append(wire, 1, 1, uint8(len(q.Aggs)))
		for range q.Aggs {
			wire = append(wire, uint8(expr.Sum))
		}
		wire = le(wire, 1, 4)
		wire = le(wire, uint64(len(key)), 4)
		wire = append(wire, key...)
		wire = le(wire, 1, 8)
		for range q.Aggs {
			wire = le(wire, math.Float64bits(1), 8)
		}
		part, err := agg.UnmarshalPartial(wire)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := eng.MergePartials(c, []*agg.Partial{part}, nil); err == nil {
			t.Errorf("%s: %s merged a partial with group key %x", name, q.Name, key)
		}
	}
}
