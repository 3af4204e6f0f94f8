package storage

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestConsolidateCompactsAndRemaps(t *testing.T) {
	db, dim, fact := makeStarPair(t)
	// Delete dim row 1 ("b"); first retarget fact rows pointing at it.
	fk := fact.Column("f_dk").(*Int32Col)
	for i, v := range fk.V {
		if v == 1 {
			fk.V[i] = 0
		}
	}
	if err := dim.Delete(1); err != nil {
		t.Fatal(err)
	}

	remap, err := Consolidate(db, dim)
	if err != nil {
		t.Fatal(err)
	}
	if len(remap) != 3 || remap[0] != 0 || remap[1] != -1 || remap[2] != 1 {
		t.Fatalf("remap = %v", remap)
	}
	if dim.NumRows() != 2 {
		t.Fatalf("dim rows = %d, want 2", dim.NumRows())
	}
	if s, _ := StringAt(dim.Column("d_name"), 1); s != "c" {
		t.Fatalf("compaction order broken: row1=%q", s)
	}
	// FK values were rewritten: old 2 -> new 1.
	want := []int32{0, 1, 0, 0, 1}
	for i, v := range fk.V {
		if v != want[i] {
			t.Fatalf("fk[%d] = %d, want %d", i, v, want[i])
		}
	}
	if err := db.ValidateAIR(); err != nil {
		t.Fatalf("AIR broken after consolidation: %v", err)
	}
	if dim.Deleted() != nil && dim.Deleted().Count() != 0 {
		t.Fatal("deletion vector not cleared")
	}
}

func TestConsolidateNoDeletesIsIdentity(t *testing.T) {
	db, dim, _ := makeStarPair(t)
	remap, err := Consolidate(db, dim)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range remap {
		if int(v) != i {
			t.Fatalf("identity remap broken at %d: %d", i, v)
		}
	}
	if dim.NumRows() != 3 {
		t.Fatal("identity consolidation changed rows")
	}

	// A sorted, segmented table consolidated a second time is already in
	// sort-key order: the second call changes nothing, so its segments, their
	// ids and the data version stay as they were.
	tb := NewTable("sorted")
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64((i * 7919) % 1000)
	}
	tb.MustAddColumn("v", NewInt64Col(vals))
	sdb := NewDatabase()
	sdb.MustAdd(tb)
	if err := tb.SetSegmentTarget(128); err != nil {
		t.Fatal(err)
	}
	if err := tb.SetSortKeys("v"); err != nil {
		t.Fatal(err)
	}
	if _, err := Consolidate(sdb, tb); err != nil {
		t.Fatal(err)
	}
	before, version := tb.SegViews(), tb.DataVersion()
	if remap, err = Consolidate(sdb, tb); err != nil {
		t.Fatal(err)
	}
	for i, v := range remap {
		if int(v) != i {
			t.Fatalf("second consolidation: remap[%d] = %d, want identity", i, v)
		}
	}
	if len(remap) != 1000 || tb.DataVersion() != version {
		t.Fatalf("second consolidation: %d remap entries, data version %d -> %d", len(remap), version, tb.DataVersion())
	}
	after := tb.SegViews()
	if len(after) != len(before) || len(before) < 2 {
		t.Fatalf("segments %d -> %d", len(before), len(after))
	}
	for i := range before {
		if after[i].ID != before[i].ID {
			t.Fatalf("segment %d rebuilt by a consolidation that changes nothing", i)
		}
	}
}

func TestConsolidateRefusesLiveReferenceToDeleted(t *testing.T) {
	db, dim, _ := makeStarPair(t)
	if err := dim.Delete(2); err != nil { // fact rows 1,4 reference row 2
		t.Fatal(err)
	}
	if _, err := Consolidate(db, dim); err == nil {
		t.Fatal("consolidation of referenced deleted row accepted")
	}
}

func TestConsolidateRefusesPinnedTable(t *testing.T) {
	db, dim, fact := makeStarPair(t)
	s := dim.Snapshot()
	if _, err := Consolidate(db, dim); err == nil {
		t.Fatal("consolidation of pinned table accepted")
	}
	s.Release()

	s2 := fact.Snapshot()
	if _, err := Consolidate(db, dim); err == nil {
		t.Fatal("consolidation with pinned referrer accepted")
	}
	s2.Release()
}

// Property: delete a random live subset of an unreferenced dimension, then
// consolidate; the surviving tuples keep their order and values.
func TestConsolidateQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(1000)
		}
		tb := NewTable("q")
		tb.MustAddColumn("v", NewInt64Col(append([]int64(nil), vals...)))
		db := NewDatabase()
		db.MustAdd(tb)
		// Half the seeds also reorder by v, so compaction and the sort-key
		// reorder run as one permutation over the all-tail table.
		sorted := seed%2 == 0
		if sorted {
			if err := tb.SetSortKeys("v"); err != nil {
				return false
			}
		}

		var want []int64
		deleted := make(map[int]bool)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				deleted[i] = true
			}
		}
		for i := 0; i < n; i++ {
			if deleted[i] {
				if err := tb.Delete(i); err != nil {
					return false
				}
			} else {
				want = append(want, vals[i])
			}
		}
		if sorted {
			slices.Sort(want)
		}
		remap, err := Consolidate(db, tb)
		if err != nil {
			return false
		}
		if tb.NumRows() != len(want) {
			return false
		}
		got := tb.Column("v").(*Int64Col).V
		for i, w := range want {
			if got[i] != w {
				return false
			}
		}
		// remap consistency
		for old, nv := range remap {
			if deleted[old] != (nv == -1) {
				return false
			}
			if nv >= 0 && got[nv] != vals[old] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
