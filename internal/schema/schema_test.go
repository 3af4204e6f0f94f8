package schema

import (
	"testing"

	"astore/internal/storage"
)

// buildSnowflake wires lineitem -> order -> customer -> nation -> region,
// plus lineitem -> part, mirroring Fig. 3 of the paper.
func buildSnowflake(t *testing.T) (root *storage.Table, tables map[string]*storage.Table) {
	t.Helper()
	region := storage.NewTable("region")
	region.MustAddColumn("r_name", storage.NewStrCol([]string{"ASIA", "EUROPE"}))

	nation := storage.NewTable("nation")
	nation.MustAddColumn("n_name", storage.NewStrCol([]string{"CHINA", "FRANCE", "JAPAN"}))
	nation.MustAddColumn("n_rk", storage.NewInt32Col([]int32{0, 1, 0}))
	nation.MustAddFK("n_rk", region)

	customer := storage.NewTable("customer")
	customer.MustAddColumn("c_name", storage.NewStrCol([]string{"alice", "bob"}))
	customer.MustAddColumn("c_nk", storage.NewInt32Col([]int32{2, 1}))
	customer.MustAddFK("c_nk", nation)

	order := storage.NewTable("order")
	order.MustAddColumn("o_price", storage.NewInt64Col([]int64{900, 700, 850}))
	order.MustAddColumn("o_ck", storage.NewInt32Col([]int32{0, 1, 0}))
	order.MustAddFK("o_ck", customer)

	part := storage.NewTable("part")
	part.MustAddColumn("p_name", storage.NewStrCol([]string{"bolt", "nut"}))

	lineitem := storage.NewTable("lineitem")
	lineitem.MustAddColumn("l_ok", storage.NewInt32Col([]int32{0, 0, 1, 2, 2}))
	lineitem.MustAddColumn("l_pk", storage.NewInt32Col([]int32{0, 1, 0, 1, 1}))
	lineitem.MustAddColumn("l_price", storage.NewInt64Col([]int64{10, 20, 30, 40, 50}))
	lineitem.MustAddFK("l_ok", order)
	lineitem.MustAddFK("l_pk", part)

	return lineitem, map[string]*storage.Table{
		"region": region, "nation": nation, "customer": customer,
		"order": order, "part": part, "lineitem": lineitem,
	}
}

func TestBuildGraphAndPaths(t *testing.T) {
	root, tabs := buildSnowflake(t)
	g, err := Build(root)
	if err != nil {
		t.Fatal(err)
	}
	if g.Root() != root {
		t.Fatal("wrong root")
	}
	if len(g.Tables()) != 6 {
		t.Fatalf("reachable tables = %d, want 6", len(g.Tables()))
	}
	if len(g.Leaves()) != 5 {
		t.Fatalf("leaves = %d, want 5", len(g.Leaves()))
	}

	wantDepth := map[string]int{
		"lineitem": 0, "order": 1, "part": 1, "customer": 2, "nation": 3, "region": 4,
	}
	for name, want := range wantDepth {
		if got := g.Depth(tabs[name]); got != want {
			t.Errorf("Depth(%s) = %d, want %d", name, got, want)
		}
	}

	path, ok := g.PathTo(tabs["region"])
	if !ok || len(path) != 4 {
		t.Fatalf("PathTo(region): ok=%v len=%d", ok, len(path))
	}
	wantSteps := []string{"l_ok", "o_ck", "c_nk", "n_rk"}
	for i, s := range path {
		if s.FKCol != wantSteps[i] {
			t.Errorf("path step %d = %s, want %s", i, s.FKCol, wantSteps[i])
		}
	}
	if _, ok := g.PathTo(storage.NewTable("other")); ok {
		t.Fatal("PathTo of unreachable table reported ok")
	}
	if g.Depth(storage.NewTable("other")) != -1 {
		t.Fatal("Depth of unreachable table not -1")
	}
}

func TestResolve(t *testing.T) {
	root, tabs := buildSnowflake(t)
	g, err := Build(root)
	if err != nil {
		t.Fatal(err)
	}

	b, err := g.Resolve("r_name")
	if err != nil {
		t.Fatal(err)
	}
	if b.Table != tabs["region"] || len(b.Path) != 4 || b.OnRoot() {
		t.Fatalf("r_name binding: table=%s pathLen=%d", b.Table.Name, len(b.Path))
	}

	b, err = g.Resolve("l_price")
	if err != nil {
		t.Fatal(err)
	}
	if !b.OnRoot() {
		t.Fatal("root column binding not OnRoot")
	}

	if _, err := g.Resolve("nope"); err == nil {
		t.Fatal("resolution of absent column succeeded")
	}

	// Qualified names.
	b, err = g.Resolve("customer.c_name")
	if err != nil {
		t.Fatal(err)
	}
	if b.Table != tabs["customer"] {
		t.Fatalf("qualified resolve got table %s", b.Table.Name)
	}
	if _, err := g.Resolve("ghost.c_name"); err == nil {
		t.Fatal("qualified resolve with unknown table succeeded")
	}
	if _, err := g.Resolve("customer.ghost"); err == nil {
		t.Fatal("qualified resolve with unknown column succeeded")
	}
}

func TestResolveAmbiguous(t *testing.T) {
	dim1 := storage.NewTable("d1")
	dim1.MustAddColumn("name", storage.NewStrCol([]string{"x"}))
	dim2 := storage.NewTable("d2")
	dim2.MustAddColumn("name", storage.NewStrCol([]string{"y"}))
	fact := storage.NewTable("f")
	fact.MustAddColumn("fk1", storage.NewInt32Col([]int32{0}))
	fact.MustAddColumn("fk2", storage.NewInt32Col([]int32{0}))
	fact.MustAddFK("fk1", dim1)
	fact.MustAddFK("fk2", dim2)

	g, err := Build(fact)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Resolve("name"); err == nil {
		t.Fatal("ambiguous unqualified resolve succeeded")
	}
	if b, err := g.Resolve("d2.name"); err != nil || b.Table != dim2 {
		t.Fatalf("qualified resolve failed: %v", err)
	}
}

func TestBuildRejectsNonTree(t *testing.T) {
	dim := storage.NewTable("dim")
	dim.MustAddColumn("x", storage.NewInt64Col([]int64{1}))
	fact := storage.NewTable("fact")
	fact.MustAddColumn("fk1", storage.NewInt32Col([]int32{0}))
	fact.MustAddColumn("fk2", storage.NewInt32Col([]int32{0}))
	fact.MustAddFK("fk1", dim)
	fact.MustAddFK("fk2", dim)
	if _, err := Build(fact); err == nil {
		t.Fatal("diamond (two paths to one table) accepted")
	}
}

func TestRowAccessorFollowsAIRChain(t *testing.T) {
	root, tabs := buildSnowflake(t)
	g, err := Build(root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Resolve("r_name")
	if err != nil {
		t.Fatal(err)
	}
	acc := b.RowAccessor()
	// lineitem row 2 -> order 1 -> customer 1 -> nation 1 -> region 1 (EUROPE)
	if got := acc(2); got != 1 {
		t.Fatalf("accessor(2) = %d, want 1", got)
	}
	// lineitem row 0 -> order 0 -> customer 0 -> nation 2 -> region 0 (ASIA)
	if got := acc(0); got != 0 {
		t.Fatalf("accessor(0) = %d, want 0", got)
	}
	names := tabs["region"].Column("r_name")
	if s, _ := storage.StringAt(names, int(acc(0))); s != "ASIA" {
		t.Fatalf("decoded region = %q", s)
	}

	// Single-hop accessor fast path.
	b1, err := g.Resolve("o_price")
	if err != nil {
		t.Fatal(err)
	}
	acc1 := b1.RowAccessor()
	if got := acc1(4); got != 2 {
		t.Fatalf("1-hop accessor(4) = %d, want 2", got)
	}
	// Identity accessor for root columns.
	b0, _ := g.Resolve("l_price")
	if got := b0.RowAccessor()(3); got != 3 {
		t.Fatalf("identity accessor(3) = %d", got)
	}

	if n := len(b.Path); n != 4 {
		t.Fatalf("path len = %d, want 4", n)
	}
	if n := len(b0.Path); n != 0 {
		t.Fatalf("root path len = %d, want 0", n)
	}
}
