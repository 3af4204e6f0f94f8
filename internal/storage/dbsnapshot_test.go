package storage

import "testing"

func snapTable(t *testing.T) *Table {
	t.Helper()
	tb := NewTable("s")
	tb.MustAddColumn("v", NewInt64Col([]int64{10, 20, 30}))
	tb.MustAddColumn("name", NewStrCol([]string{"a", "b", "c"}))
	return tb
}

func TestSnapshotAsTable(t *testing.T) {
	tb := snapTable(t)
	s := tb.Snapshot()
	defer s.Release()
	ft := s.AsTable()
	if ft.NumRows() != 3 || ft.Name != "s" {
		t.Fatalf("frozen table: rows=%d name=%s", ft.NumRows(), ft.Name)
	}
	if _, err := tb.Insert(map[string]any{"v": 40, "name": "d"}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(0, "v", int64(99)); err != nil {
		t.Fatal(err)
	}
	if ft.NumRows() != 3 {
		t.Fatal("append leaked into frozen table")
	}
	if got := ft.Column("v").(*Int64Col).V[0]; got != 10 {
		t.Fatalf("in-place update leaked into frozen table: %d", got)
	}
}

func TestDatabaseSnapshotConsistentAcrossTables(t *testing.T) {
	db, dim, fact := makeStarPair(t)

	snap, release := db.Snapshot()
	defer release()

	// Mutate both live tables after the snapshot.
	if _, err := dim.Insert(map[string]any{"d_name": "d", "d_val": int64(400)}); err != nil {
		t.Fatal(err)
	}
	if _, err := fact.Insert(map[string]any{"f_dk": int32(3), "f_m": int64(6)}); err != nil {
		t.Fatal(err)
	}
	if err := fact.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := dim.Update(0, "d_val", int64(999)); err != nil {
		t.Fatal(err)
	}

	fdim := snap.Table("dim")
	ffact := snap.Table("fact")
	if fdim.NumRows() != 3 || ffact.NumRows() != 5 {
		t.Fatalf("snapshot rows: dim=%d fact=%d", fdim.NumRows(), ffact.NumRows())
	}
	if ffact.NumLive() != 5 {
		t.Fatal("live delete leaked into snapshot")
	}
	if v, _ := Int64At(fdim.Column("d_val"), 0); v != 100 {
		t.Fatalf("live update leaked into snapshot: %d", v)
	}
	// FK edges are rewired to the frozen tables.
	if ffact.FK("f_dk") != fdim {
		t.Fatal("snapshot FK points outside the snapshot")
	}
	if err := snap.ValidateAIR(); err != nil {
		t.Fatalf("snapshot AIR broken: %v", err)
	}
	// The frozen fact still references dim row 3? No: the snapshot's fact
	// has 5 rows with fk values 0..2, all valid against the 3-row dim.
	fk := ffact.Column("f_dk").(*Int32Col)
	for _, v := range fk.V {
		if v < 0 || int(v) >= fdim.NumRows() {
			t.Fatalf("dangling snapshot FK %d", v)
		}
	}

	// After release, writers stop copying.
	release()
	before := dim.Column("d_name")
	if err := dim.Update(0, "d_name", "x"); err != nil {
		t.Fatal(err)
	}
	if dim.Column("d_name") != before {
		t.Fatal("COW still active after release")
	}
}
