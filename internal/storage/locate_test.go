package storage

import (
	"testing"
)

// TestRowLookupAllocatesNothing: mapping a row to its segment is a division
// (or, over a non-uniform loaded manifest, a binary search) on live tables,
// frozen tables and snapshots alike — per-row callers such as ValidateAIR
// and Consolidate must not pay per-segment work, let alone allocations.
func TestRowLookupAllocatesNothing(t *testing.T) {
	uniform := segTestTable(64*10 + 3)
	if err := uniform.SetSegmentTarget(10); err != nil {
		t.Fatal(err)
	}
	if sealed, _ := uniform.SegmentCounts(); sealed != 64 {
		t.Fatalf("%d sealed segments, want 64", sealed)
	}

	// A manifest no append sequence produces: sealed segments of 3, 10, 5
	// and 1 rows, then a 4-row tail.
	counts := []int{3, 10, 5, 1, 4}
	ragged := segTestTable(0)
	ragged.segTarget = 10
	chunks := map[string][]Column{}
	for _, n := range counts {
		src := segTestTable(n)
		for _, col := range src.names {
			chunks[col] = append(chunks[col], src.tail.cols[col])
		}
		ragged.nrows += n
	}
	ragged.installSegmentsLocked(chunks, counts, nil)

	for name, tab := range map[string]*Table{"uniform": uniform, "ragged": ragged} {
		deleted := make(map[int]bool)
		for i := 0; i < tab.NumRows(); i += 3 {
			if err := tab.Delete(i); err != nil {
				t.Fatal(err)
			}
			deleted[i] = true
		}
		snap := tab.Snapshot()
		lookups := map[string]func(int) bool{
			"live":     tab.IsDeleted,
			"frozen":   snap.AsTable().IsDeleted,
			"snapshot": snap.IsDeleted,
		}
		for kind, isDeleted := range lookups {
			for i := -1; i <= tab.NumRows(); i++ {
				if got := isDeleted(i); got != deleted[i] {
					t.Fatalf("%s %s: IsDeleted(%d) = %v, want %v", name, kind, i, got, deleted[i])
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				for i := 0; i < tab.NumRows(); i++ {
					isDeleted(i)
				}
			})
			if allocs != 0 {
				t.Errorf("%s %s: IsDeleted allocates (%v allocations per pass over the table)", name, kind, allocs)
			}
		}
		snap.Release()
	}
}

// TestPinCostIndependentOfSegments: a snapshot shares the sealed segments
// as they are and copies only the tail, so what pinning a table allocates
// does not grow with the number of sealed segments.
func TestPinCostIndependentOfSegments(t *testing.T) {
	allocs := func(sealed int) float64 {
		tab := segTestTable(sealed*10 + 3)
		if err := tab.SetSegmentTarget(10); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { tab.Snapshot().Release() })
	}
	if few, many := allocs(4), allocs(64); few != many {
		t.Errorf("Snapshot().Release() allocates %v times at 4 sealed segments, %v at 64", few, many)
	}
}

// TestValidateAndConsolidateAcrossSegments checks ValidateAIR and the
// consolidation of a dimension whose referrer has many segments and some
// deletions against a brute-force oracle over plain slices.
func TestValidateAndConsolidateAcrossSegments(t *testing.T) {
	const nDim, nFact, target = 50, 400, 10 // 39 sealed segments + a full tail
	db := NewDatabase()
	dim := NewTable("dim")
	dv := make([]int64, nDim)
	for i := range dv {
		dv[i] = int64(1000 + i)
	}
	dim.MustAddColumn("dv", NewInt64Col(dv))
	db.MustAdd(dim)

	fk := make([]int32, nFact)
	for i := range fk {
		fk[i] = int32((i * 7) % nDim)
	}
	fact := NewTable("fact")
	fact.MustAddColumn("fk", NewInt32Col(append([]int32(nil), fk...)))
	fact.MustAddFK("fk", dim)
	db.MustAdd(fact)
	if err := fact.SetSegmentTarget(target); err != nil {
		t.Fatal(err)
	}
	if sealed, _ := fact.SegmentCounts(); sealed < 32 {
		t.Fatalf("%d sealed segments, want >= 32", sealed)
	}

	// Delete every fact row referencing a dimension row divisible by 5,
	// then those dimension rows: nothing live references a deleted row.
	factDead := make([]bool, nFact)
	dimDead := make([]bool, nDim)
	for i, v := range fk {
		if v%5 == 0 {
			if err := fact.Delete(i); err != nil {
				t.Fatal(err)
			}
			factDead[i] = true
		}
	}
	for i := 0; i < nDim; i += 5 {
		if err := dim.Delete(i); err != nil {
			t.Fatal(err)
		}
		dimDead[i] = true
	}
	if err := db.ValidateAIR(); err != nil {
		t.Fatalf("ValidateAIR: %v", err)
	}

	// One more dimension row goes, referenced by live rows deep in the
	// segment list: both operations must refuse until those rows go too.
	const victim = 3
	if err := dim.Delete(victim); err != nil {
		t.Fatal(err)
	}
	dimDead[victim] = true
	if err := db.ValidateAIR(); err == nil {
		t.Fatal("ValidateAIR accepted a live reference to a deleted row")
	}
	if _, err := Consolidate(db, dim); err == nil {
		t.Fatal("Consolidate accepted a live reference to a deleted row")
	}
	for i, v := range fk {
		if v == victim {
			if err := fact.Delete(i); err != nil {
				t.Fatal(err)
			}
			factDead[i] = true
		}
	}
	if err := db.ValidateAIR(); err != nil {
		t.Fatalf("ValidateAIR: %v", err)
	}

	remap, err := Consolidate(db, dim)
	if err != nil {
		t.Fatal(err)
	}
	wantRemap := make([]int32, nDim)
	live := int32(0)
	for i := range wantRemap {
		wantRemap[i] = -1
		if !dimDead[i] {
			wantRemap[i] = live
			live++
		}
	}
	for i := range remap {
		if remap[i] != wantRemap[i] {
			t.Fatalf("remap[%d] = %d, want %d", i, remap[i], wantRemap[i])
		}
	}
	if dim.NumRows() != int(live) || fact.NumRows() != nFact {
		t.Fatalf("rows after consolidate: dim %d (want %d), fact %d (want %d)", dim.NumRows(), live, fact.NumRows(), nFact)
	}
	for _, sv := range fact.SegViews() {
		got := sv.Cols["fk"].(*Int32Col).V
		for i := 0; i < sv.N; i++ {
			row := sv.Base + i
			if fact.IsDeleted(row) != factDead[row] {
				t.Fatalf("fact row %d: deleted = %v, want %v", row, !factDead[row], factDead[row])
			}
			if want := wantRemap[fk[row]]; !factDead[row] && got[i] != want {
				t.Fatalf("fact row %d: fk = %d, want %d", row, got[i], want)
			}
			if got[i] < 0 || got[i] >= live {
				t.Fatalf("fact row %d: fk %d parked out of range", row, got[i])
			}
		}
	}
	if err := db.ValidateAIR(); err != nil {
		t.Fatalf("ValidateAIR after consolidate: %v", err)
	}
}
