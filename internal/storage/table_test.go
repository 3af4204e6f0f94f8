package storage

import (
	"strings"
	"testing"
)

// makeStarPair returns a tiny dimension and fact table wired by AIR.
func makeStarPair(t *testing.T) (*Database, *Table, *Table) {
	t.Helper()
	dim := NewTable("dim")
	dim.MustAddColumn("d_name", NewStrCol([]string{"a", "b", "c"}))
	dim.MustAddColumn("d_val", NewInt64Col([]int64{100, 200, 300}))

	fact := NewTable("fact")
	fact.MustAddColumn("f_dk", NewInt32Col([]int32{0, 2, 1, 0, 2}))
	fact.MustAddColumn("f_m", NewInt64Col([]int64{1, 2, 3, 4, 5}))
	fact.MustAddFK("f_dk", dim)

	db := NewDatabase()
	db.MustAdd(dim)
	db.MustAdd(fact)
	return db, dim, fact
}

func TestTableBasics(t *testing.T) {
	_, dim, fact := makeStarPair(t)
	if dim.NumRows() != 3 || fact.NumRows() != 5 {
		t.Fatalf("rows: dim=%d fact=%d", dim.NumRows(), fact.NumRows())
	}
	if fact.FK("f_dk") != dim {
		t.Fatal("FK lookup failed")
	}
	if fact.FK("f_m") != nil {
		t.Fatal("non-FK column reported a reference")
	}
	names := fact.ColumnNames()
	if len(names) != 2 || names[0] != "f_dk" {
		t.Fatalf("ColumnNames = %v", names)
	}
	if fact.Column("nope") != nil {
		t.Fatal("absent column lookup returned non-nil")
	}
	fks := fact.FKs()
	if len(fks) != 1 || fks["f_dk"] != dim {
		t.Fatalf("FKs = %v", fks)
	}
}

func TestAddColumnErrors(t *testing.T) {
	tb := NewTable("t")
	tb.MustAddColumn("a", NewInt64Col([]int64{1, 2}))
	if err := tb.AddColumn("a", NewInt64Col([]int64{1, 2})); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if err := tb.AddColumn("b", NewInt64Col([]int64{1})); err == nil {
		t.Fatal("misaligned column accepted")
	}
	// Encoded chunks are sealed-only: a table's tail takes writes.
	rle := &RLECol{End: []int32{2}, Vals: NewInt64Col([]int64{7})}
	if err := tb.AddColumn("c", rle); err == nil {
		t.Fatal("encoded column accepted")
	}
}

func TestAddFKErrors(t *testing.T) {
	tb := NewTable("t")
	tb.MustAddColumn("a", NewInt64Col([]int64{1}))
	if err := tb.AddFK("missing", tb); err == nil {
		t.Fatal("FK on missing column accepted")
	}
	if err := tb.AddFK("a", tb); err == nil {
		t.Fatal("FK on int64 column accepted")
	}
}

func TestValidateAIR(t *testing.T) {
	db, dim, fact := makeStarPair(t)
	if err := db.ValidateAIR(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	fk := fact.Column("f_dk").(*Int32Col)
	fk.V[0] = 99
	if err := fact.ValidateAIR(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range AIR not detected: %v", err)
	}
	fk.V[0] = 0
	if err := dim.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := fact.ValidateAIR(); err == nil || !strings.Contains(err.Error(), "deleted") {
		t.Fatalf("reference to deleted row not detected: %v", err)
	}
}

func TestDatabaseReferrers(t *testing.T) {
	db, dim, fact := makeStarPair(t)
	refs := db.Referrers(dim)
	if len(refs) != 1 || refs[0].From != fact || refs[0].Col != "f_dk" {
		t.Fatalf("Referrers = %+v", refs)
	}
	if len(db.Referrers(fact)) != 0 {
		t.Fatal("fact has referrers")
	}
	if db.Table("dim") != dim || db.Table("zzz") != nil {
		t.Fatal("Table lookup failed")
	}
	if err := db.Add(NewTable("dim")); err == nil {
		t.Fatal("duplicate table name accepted")
	}
	if len(db.Tables()) != 2 {
		t.Fatalf("Tables len = %d", len(db.Tables()))
	}
}

func TestInsertAppendAndReuse(t *testing.T) {
	_, dim, _ := makeStarPair(t)

	row, err := dim.Insert(map[string]any{"d_name": "d", "d_val": int64(400)})
	if err != nil {
		t.Fatal(err)
	}
	if row != 3 {
		t.Fatalf("append insert row = %d, want 3", row)
	}
	if dim.NumRows() != 4 || dim.NumLive() != 4 {
		t.Fatalf("rows=%d live=%d", dim.NumRows(), dim.NumLive())
	}

	// Delete then insert: slot must be reused, array must not grow.
	if err := dim.Delete(1); err != nil {
		t.Fatal(err)
	}
	if dim.NumLive() != 3 {
		t.Fatalf("live after delete = %d", dim.NumLive())
	}
	row, err = dim.Insert(map[string]any{"d_name": "e", "d_val": 500})
	if err != nil {
		t.Fatal(err)
	}
	if row != 1 {
		t.Fatalf("reuse insert row = %d, want 1", row)
	}
	if dim.NumRows() != 4 {
		t.Fatalf("slot reuse grew table to %d rows", dim.NumRows())
	}
	if dim.IsDeleted(1) {
		t.Fatal("reused slot still marked deleted")
	}
	if s, _ := StringAt(dim.Column("d_name"), 1); s != "e" {
		t.Fatalf("reused slot value = %q", s)
	}
}

func TestInsertValidation(t *testing.T) {
	_, dim, _ := makeStarPair(t)
	if _, err := dim.Insert(map[string]any{"d_name": "x"}); err == nil {
		t.Fatal("insert with missing column accepted")
	}
	if _, err := dim.Insert(map[string]any{"d_name": "x", "bogus": 1}); err == nil {
		t.Fatal("insert with wrong column accepted")
	}
	if _, err := dim.Insert(map[string]any{"d_name": 42, "d_val": int64(1)}); err == nil {
		t.Fatal("type-mismatched insert accepted")
	}
	// A failed insert must not corrupt row count.
	if dim.NumRows() != 3 {
		t.Fatalf("failed inserts changed NumRows to %d", dim.NumRows())
	}
}

func TestInsertReuseValidationDoesNotCorruptSlot(t *testing.T) {
	_, dim, _ := makeStarPair(t)
	if err := dim.Delete(0); err != nil {
		t.Fatal(err)
	}
	if _, err := dim.Insert(map[string]any{"d_name": 42, "d_val": int64(1)}); err == nil {
		t.Fatal("bad reuse insert accepted")
	}
	// Slot must still be free and reusable.
	row, err := dim.Insert(map[string]any{"d_name": "ok", "d_val": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if row != 0 {
		t.Fatalf("slot not reused after failed insert; row = %d", row)
	}
}

func TestDeleteErrors(t *testing.T) {
	_, dim, _ := makeStarPair(t)
	if err := dim.Delete(99); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	if err := dim.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := dim.Delete(0); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestUpdateInPlace(t *testing.T) {
	_, dim, fact := makeStarPair(t)
	if err := dim.Update(1, "d_name", "B!"); err != nil {
		t.Fatal(err)
	}
	if s, _ := StringAt(dim.Column("d_name"), 1); s != "B!" {
		t.Fatalf("update lost: %q", s)
	}
	// In-place update never touches referrers' FKs.
	fk := fact.Column("f_dk").(*Int32Col)
	if fk.V[2] != 1 {
		t.Fatal("update modified FK values")
	}

	if err := dim.Update(0, "nope", 1); err == nil {
		t.Fatal("update of missing column accepted")
	}
	if err := dim.Update(77, "d_name", "x"); err == nil {
		t.Fatal("update of out-of-range row accepted")
	}
	if err := dim.Update(0, "d_val", "not an int"); err == nil {
		t.Fatal("type-mismatched update accepted")
	}
	if err := dim.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := dim.Update(2, "d_name", "x"); err == nil {
		t.Fatal("update of deleted row accepted")
	}
}

func TestMemBytes(t *testing.T) {
	_, dim, fact := makeStarPair(t)
	if dim.MemBytes() <= 0 || fact.MemBytes() <= 0 {
		t.Fatal("MemBytes not positive")
	}
	// Dict column shares one dictionary across clones of the column.
	tb := NewTable("t")
	dc := NewDictColFrom([]string{"aaaa", "bbbb"})
	tb.MustAddColumn("c1", dc)
	tb.MustAddColumn("c2", dc.Clone())
	one := NewTable("u")
	one.MustAddColumn("c1", dc.Clone())
	if tb.MemBytes() >= 2*one.MemBytes() {
		t.Fatalf("shared dictionary double counted: %d vs %d", tb.MemBytes(), one.MemBytes())
	}
}
