package db

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"astore/internal/baseline"
	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/query"
	"astore/internal/sql"
	"astore/internal/storage"
	"astore/internal/testutil"
)

// The layout-invariance law (Kaser & Lemire's reordering law, PAPERS.md,
// applied to the storage shape): the same sequence of writes and maintenance
// applied to copies of one catalog that differ only in where the fact table
// seals its segments must leave the same live rows, the same AIR verdicts
// and the same query answers — and those must be the answers a hash-join
// engine computes from a plain Go model of the rows.

// lawLayout is one physical layout of the fact table.
type lawLayout struct {
	name    string
	target  int  // sealing threshold, 0 = never seal
	encoded bool // sealed chunks RLE/FoR-encoded
}

// lawRow is one lineorder tuple, in the table's column order.
type lawRow [11]int64

// lawCopy is one catalog under test plus what the harness knows about its
// physical state: which logical row sits at each physical position, and
// how many physical rows and reusable slots storage should be holding.
type lawCopy struct {
	lawLayout
	cat  *storage.Database
	fact *storage.Table
	idOf []int // physical row -> logical row id, -1 for a hole
	free int   // holes an insert may fill (only counted where storage reuses them)
}

// lawModel is the layout-independent truth: the live fact rows by id.
type lawModel struct {
	cols []string
	rows map[int]lawRow
	next int
}

func (m *lawModel) ids() []int {
	ids := make([]int, 0, len(m.rows))
	for id := range m.rows {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func lawVals(cols []string, types []storage.Type, r lawRow) map[string]any {
	vals := make(map[string]any, len(cols))
	for i, c := range cols {
		if types[i] == storage.TInt32 {
			vals[c] = int32(r[i])
		} else {
			vals[c] = r[i]
		}
	}
	return vals
}

// liveRows reads every live row of a fact table through its segment views,
// keyed by physical position.
func liveRows(t *testing.T, fact *storage.Table, cols []string) map[int]lawRow {
	t.Helper()
	out := make(map[int]lawRow)
	for _, sv := range fact.SegViews() {
		for i := 0; i < sv.N; i++ {
			if sv.Del != nil && sv.Del.Get(i) {
				continue
			}
			var r lawRow
			for ci, c := range cols {
				v, ok := storage.Int64At(sv.Cols[c], i)
				if !ok {
					t.Fatalf("column %s is not integer", c)
				}
				r[ci] = v
			}
			out[sv.Base+i] = r
		}
	}
	return out
}

// checkRows asserts that a fact table holds exactly the rows want (by
// logical id), each at the physical position idOf says.
func checkRows(t *testing.T, what string, fact *storage.Table, cols []string, idOf []int, want map[int]lawRow) {
	t.Helper()
	got := liveRows(t, fact, cols)
	if len(got) != len(want) || fact.NumLive() != len(want) {
		t.Fatalf("%s: %d live rows (NumLive %d), model has %d", what, len(got), fact.NumLive(), len(want))
	}
	for pos, r := range got {
		if pos >= len(idOf) || idOf[pos] < 0 {
			t.Fatalf("%s: live row at position %d, where the harness expects a hole", what, pos)
		}
		if w, ok := want[idOf[pos]]; !ok || w != r {
			t.Fatalf("%s: position %d (row id %d) = %v, model %v (present %v)", what, pos, idOf[pos], r, w, ok)
		}
	}
}

// oracleFact builds, from the model alone, a fresh never-sealing fact table
// over deep copies of dims' tables — the input of the hash-join oracle.
func oracleFact(m *lawModel, types []storage.Type, dims *storage.Database, factName string) *storage.Table {
	clones := make(map[string]*storage.Table)
	for _, src := range dims.Tables() {
		if src.Name == factName {
			continue
		}
		c := storage.NewTable(src.Name)
		for _, col := range src.ColumnNames() {
			c.MustAddColumn(col, src.Column(col).Clone())
		}
		for i := 0; i < src.NumRows(); i++ {
			if src.IsDeleted(i) {
				if err := c.Delete(i); err != nil {
					panic(err)
				}
			}
		}
		clones[src.Name] = c
	}
	ids := m.ids()
	fact := storage.NewTable(factName)
	for ci, col := range m.cols {
		if types[ci] == storage.TInt32 {
			v := make([]int32, len(ids))
			for i, id := range ids {
				v[i] = int32(m.rows[id][ci])
			}
			fact.MustAddColumn(col, storage.NewInt32Col(v))
		} else {
			v := make([]int64, len(ids))
			for i, id := range ids {
				v[i] = m.rows[id][ci]
			}
			fact.MustAddColumn(col, storage.NewInt64Col(v))
		}
	}
	for col, ref := range dims.Table(factName).FKs() {
		fact.MustAddFK(col, clones[ref.Name])
	}
	return fact
}

func TestLayoutInvarianceLaw(t *testing.T) {
	const factRows = 1500
	layouts := []lawLayout{
		{name: "never-seal", target: 0},
		{name: "seal-1", target: 1},
		{name: "seal-7", target: 7},
		{name: "seal-4096", target: 4096},
		{name: "seal-beyond", target: 1 << 20},
		{name: "seal-64-encoded", target: 64, encoded: true},
	}
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			lawRun(t, seed, factRows, layouts)
		})
	}
}

func lawRun(t *testing.T, seed int64, factRows int, layouts []lawLayout) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	queries := ssb.Queries()

	// Bulk load: every copy is the same generated catalog with the fact
	// table cut to factRows (sealing every row is one of the layouts, so the
	// fact must stay small; the dimensions keep SF 0.01's cardinalities so
	// the SSB predicates still select something).
	gen := func() (*storage.Database, *storage.Table) {
		d := ssb.Generate(ssb.Config{SF: 0.01, Seed: 7})
		full := d.Lineorder
		cut := storage.NewTable(full.Name)
		for _, col := range full.ColumnNames() {
			c := full.Column(col).Clone()
			switch c := c.(type) { // lineorder's columns are int32 and int64
			case *storage.Int32Col:
				c.V = c.V[:factRows]
			case *storage.Int64Col:
				c.V = c.V[:factRows]
			}
			cut.MustAddColumn(col, c)
		}
		cat := storage.NewDatabase()
		cat.MustAdd(cut)
		for col, ref := range full.FKs() {
			cut.MustAddFK(col, ref)
		}
		for _, tab := range d.DB.Tables() {
			if tab != full {
				cat.MustAdd(tab)
			}
		}
		return cat, cut
	}

	model := &lawModel{rows: make(map[int]lawRow)}
	var types []storage.Type
	copies := make([]*lawCopy, len(layouts))
	for li, l := range layouts {
		cat, fact := gen()
		c := &lawCopy{lawLayout: l, cat: cat, fact: fact}
		if li == 0 {
			model.cols = append([]string(nil), fact.ColumnNames()...)
			for _, col := range model.cols {
				typ, _ := fact.ColumnType(col)
				types = append(types, typ)
			}
			for pos, r := range liveRows(t, fact, model.cols) {
				model.rows[pos] = r
			}
			model.next = factRows
		}
		for i := 0; i < factRows; i++ {
			c.idOf = append(c.idOf, i)
		}
		if l.target > 0 {
			if err := fact.SetSegmentTarget(l.target); err != nil {
				t.Fatal(err)
			}
		}
		if l.encoded {
			if err := fact.EncodeSealed(); err != nil {
				t.Fatal(err)
			}
		}
		copies[li] = c
	}
	dimRows := func(name string) int { return copies[0].cat.Table(name).NumRows() }
	randRow := func() lawRow {
		qty, disc := int64(rng.Intn(50)+1), int64(rng.Intn(11))
		price := int64(rng.Intn(100_000) + 900)
		return lawRow{
			int64(rng.Intn(dimRows("customer"))), int64(rng.Intn(dimRows("supplier"))),
			int64(rng.Intn(dimRows("part"))), int64(rng.Intn(dimRows("date"))),
			qty, disc, qty * price, qty * price, qty * price * (100 - disc) / 100, price * 6 / 10, int64(rng.Intn(9)),
		}
	}
	pickLive := func() int {
		ids := model.ids()
		return ids[rng.Intn(len(ids))]
	}
	posOf := func(c *lawCopy, id int) int {
		pos := slices.Index(c.idOf, id)
		if pos < 0 {
			t.Fatalf("%s: row id %d has no position", c.name, id)
		}
		return pos
	}

	// The write operations, each applied to the model and to every copy.
	insert := func(n int) {
		for ; n > 0; n-- {
			r, id := randRow(), model.next
			model.next++
			model.rows[id] = r
			for _, c := range copies {
				pos, err := c.fact.Insert(lawVals(model.cols, types, r))
				if err != nil {
					t.Fatalf("%s: insert: %v", c.name, err)
				}
				// §4.4: only the never-sealing layout fills holes.
				switch {
				case c.target == 0 && c.free > 0:
					if pos >= len(c.idOf) || c.idOf[pos] != -1 {
						t.Fatalf("%s: insert landed at %d, want a freed slot", c.name, pos)
					}
					c.free--
					c.idOf[pos] = id
				case pos != len(c.idOf):
					t.Fatalf("%s: insert landed at %d, want an append at %d", c.name, pos, len(c.idOf))
				default:
					c.idOf = append(c.idOf, id)
				}
			}
		}
	}
	remove := func(n int) {
		for ; n > 0 && len(model.rows) > 1; n-- {
			id := pickLive()
			delete(model.rows, id)
			for _, c := range copies {
				pos := posOf(c, id)
				if err := c.fact.Delete(pos); err != nil {
					t.Fatalf("%s: delete: %v", c.name, err)
				}
				c.idOf[pos] = -1
				c.free++
			}
		}
	}
	update := func(n int) {
		for ; n > 0; n-- {
			id, ci := pickLive(), 4+rng.Intn(7) // a measure column, not an FK
			r := model.rows[id]
			r[ci] = randRow()[ci]
			model.rows[id] = r
			for _, c := range copies {
				v := lawVals(model.cols, types, r)[model.cols[ci]]
				if err := c.fact.Update(posOf(c, id), model.cols[ci], v); err != nil {
					t.Fatalf("%s: update: %v", c.name, err)
				}
			}
		}
	}
	consolidateFact := func(sortKeys ...string) {
		for _, c := range copies {
			if err := c.fact.SetSortKeys(sortKeys...); err != nil {
				t.Fatal(err)
			}
			remap, err := storage.Consolidate(c.cat, c.fact)
			if err != nil {
				t.Fatalf("%s: consolidate: %v", c.name, err)
			}
			if len(remap) != len(c.idOf) {
				t.Fatalf("%s: remap covers %d rows, table had %d", c.name, len(remap), len(c.idOf))
			}
			next := make([]int, len(model.rows))
			for old, id := range c.idOf {
				if (id < 0) != (remap[old] < 0) {
					t.Fatalf("%s: remap[%d] = %d for row id %d", c.name, old, remap[old], id)
				}
				if id >= 0 {
					next[remap[old]] = id
				}
			}
			c.idOf, c.free = next, 0
			if err := c.fact.SetSortKeys(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// consolidateDim deletes one customer, re-points the facts that reference
	// it (before that, every copy must fail AIR validation), and compacts
	// the dimension, which renumbers it and rewrites lo_custkey in every
	// segment of every layout.
	consolidateDim := func() {
		victim := int64(rng.Intn(dimRows("customer")))
		heir := (victim + 1) % int64(dimRows("customer"))
		referenced := false
		for _, r := range model.rows {
			referenced = referenced || r[0] == victim
		}
		for _, c := range copies {
			if err := c.cat.Table("customer").Delete(int(victim)); err != nil {
				t.Fatal(err)
			}
			if err := c.cat.ValidateAIR(); (err != nil) != referenced {
				t.Fatalf("%s: ValidateAIR with customer %d deleted (referenced %v) = %v", c.name, victim, referenced, err)
			}
			if _, err := storage.Consolidate(c.cat, c.cat.Table("customer")); (err != nil) != referenced {
				t.Fatalf("%s: consolidate of a customer still referenced (%v) = %v", c.name, referenced, err)
			}
		}
		if !referenced {
			// The consolidation above went through: renumber the model.
			for id, r := range model.rows {
				if r[0] > victim {
					r[0]--
					model.rows[id] = r
				}
			}
			return
		}
		var want []int32
		for id, r := range model.rows {
			if r[0] == victim {
				r[0] = heir
				model.rows[id] = r
				for _, c := range copies {
					if err := c.fact.Update(posOf(c, id), "lo_custkey", int32(heir)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, c := range copies {
			remap, err := storage.Consolidate(c.cat, c.cat.Table("customer"))
			if err != nil {
				t.Fatalf("%s: consolidate customer: %v", c.name, err)
			}
			if want == nil {
				want = remap
			} else if !slices.Equal(want, remap) {
				t.Fatalf("%s: customer remap differs from %s's", c.name, copies[0].name)
			}
		}
		for id, r := range model.rows {
			r[0] = int64(want[r[0]])
			model.rows[id] = r
		}
	}
	persist := func() {
		for _, c := range copies {
			sealed, _ := c.fact.SegmentCounts()
			var img bytes.Buffer
			if err := c.cat.Save(&img); err != nil {
				t.Fatal(err)
			}
			cat, err := storage.LoadDatabase(&img)
			if err != nil {
				t.Fatalf("%s: load: %v", c.name, err)
			}
			c.cat, c.fact = cat, cat.Table(c.fact.Name)
			if got, _ := c.fact.SegmentCounts(); c.fact.SegmentTarget() != c.target || got != sealed {
				t.Fatalf("%s: reloaded with target %d and %d sealed segments, saved %d and %d",
					c.name, c.fact.SegmentTarget(), got, c.target, sealed)
			}
		}
	}

	// check asserts the law: (a) the model's rows, the expected physical row
	// count and a clean AIR verdict in every copy, and with deep (b) every
	// SSB query, through every copy, equal at tolerance 0 to the oracle's
	// answer over a flat table built from the model.
	check := func(step string, deep bool) {
		t.Helper()
		for _, c := range copies {
			what := step + " " + c.name
			checkRows(t, what, c.fact, model.cols, c.idOf, model.rows)
			if c.fact.NumRows() != len(c.idOf) {
				t.Fatalf("%s: %d physical rows, want %d", what, c.fact.NumRows(), len(c.idOf))
			}
			if err := c.cat.ValidateAIR(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		if !deep {
			return
		}
		twin := oracleFact(model, types, copies[0].cat, copies[0].fact.Name)
		fixtures := make([]testutil.Fixture, len(copies))
		for i, c := range copies {
			fixtures[i] = testutil.Fixture{Name: c.name, Build: func(_ testing.TB, flat bool) *storage.Table {
				if flat {
					return twin
				}
				return c.fact
			}}
		}
		// Each query pins its copy once, as DB.Run does: the cold run
		// compiles and executes on the pinned view, and the warm run executes
		// again on it, merging the partials the cold run cached, and unpins.
		layouts := testutil.Target{Open: func(t testing.TB, fact *storage.Table) func(*query.Query, testutil.Run) (*query.Result, error) {
			d, err := Open(testutil.Catalog(fact), core.Options{Workers: 1 + rng.Intn(2)})
			if err != nil {
				t.Fatal(err)
			}
			eng := d.Engine(fact.Name)
			var view *core.View
			var c *core.Compiled
			return func(q *query.Query, r testutil.Run) (res *query.Result, err error) {
				if r.Warm == 0 {
					view = eng.Acquire()
					c, err = view.Compile(q)
				}
				if err == nil {
					res, err = eng.Exec(ctx, view, c, nil)
				}
				if r.Warm > 0 || err != nil {
					view.Release()
				}
				return res, err
			}
		}}
		t.Run(step, func(t *testing.T) {
			testutil.Matrix{
				Queries:  queries,
				Fixtures: fixtures,
				Targets:  []testutil.Target{layouts},
				Oracle:   hashJoin,
				Render:   sql.Render,
			}.Run(t)
		})
	}

	// pinned runs mutate while every copy is pinned, then asserts (c): each
	// frozen catalog still holds the rows and gives the answers of the
	// moment it was pinned.
	pinned := func(mutate func()) {
		wantRows := make(map[int]lawRow, len(model.rows))
		for id, r := range model.rows {
			wantRows[id] = r
		}
		oracle := baseline.NewHashJoinEngine(oracleFact(model, types, copies[0].cat, copies[0].fact.Name))
		probes := []*query.Query{queries[rng.Intn(len(queries))], ssb.Q4_1()}
		var wantRes []*query.Result
		for _, q := range probes {
			res, err := oracle.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			wantRes = append(wantRes, res)
		}
		type pin struct {
			cat     *storage.Database
			idOf    []int
			release func()
		}
		pins := make([]pin, len(copies))
		for i, c := range copies {
			cat, release := c.cat.Snapshot()
			pins[i] = pin{cat: cat, idOf: slices.Clone(c.idOf), release: release}
		}
		defer func() {
			for _, p := range pins {
				p.release()
			}
		}()
		mutate()
		for i, c := range copies {
			what := "pinned " + c.name
			frozen := pins[i].cat.Table(c.fact.Name)
			checkRows(t, what, frozen, model.cols, pins[i].idOf, wantRows)
			d, err := Open(pins[i].cat, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range probes {
				got, err := d.Run(ctx, q)
				if err != nil {
					t.Fatalf("%s %s: %v", what, q.Name, err)
				}
				if err := query.Diff(wantRes[qi], got, 0); err != nil {
					t.Fatalf("%s %s: %v", what, q.Name, err)
				}
			}
		}
	}

	check("bulk load", true)
	ops := []struct {
		name string
		deep bool
		run  func()
	}{
		{"insert", false, func() { insert(1 + rng.Intn(40)) }},
		{"delete", false, func() { remove(1 + rng.Intn(40)) }},
		{"update", false, func() { update(1 + rng.Intn(40)) }},
		{"delete+insert", true, func() { remove(30); insert(20 + rng.Intn(20)) }},
		{"snapshot-then-mutate", false, func() {
			pinned(func() {
				insert(1 + rng.Intn(20))
				remove(1 + rng.Intn(20))
				update(1 + rng.Intn(20))
				cust := rng.Intn(dimRows("customer"))
				for _, c := range copies {
					if err := c.cat.Table("customer").Update(cust, "c_region", "ASIA"); err != nil {
						t.Fatal(err)
					}
				}
			})
		}},
		{"consolidate", true, func() { consolidateFact() }},
		{"consolidate sorted", true, func() {
			consolidateFact("lo_orderdate", "lo_discount")
			// The encoded layout must really be encoded when the queries run.
			// Only FoR is asserted: 1 500 rows over ~2 500 dates leave no run
			// long enough for RLE to halve a 64-row chunk.
			for _, c := range copies {
				if !c.encoded {
					continue
				}
				encs := make(map[storage.Encoding]int)
				for _, sv := range c.fact.SegViews() {
					for _, ch := range sv.Cols {
						if sv.Sealed {
							encs[storage.ChunkEncoding(ch)]++
						}
					}
				}
				if encs[storage.EncFoR] == 0 {
					t.Fatalf("%s: no FoR sealed chunk after the sort-key consolidate (%v)", c.name, encs)
				}
			}
		}},
		{"consolidate dimension", true, consolidateDim},
		{"persist round trip", true, persist},
	}
	for round := 0; round < 2; round++ {
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		for _, op := range ops {
			op.run()
			check(fmt.Sprintf("round %d after %s", round, op.name), op.deep)
		}
	}

	// (d) nothing is left pinned.
	for _, c := range copies {
		for _, tab := range c.cat.Tables() {
			if tab.Pins() != 0 {
				t.Errorf("%s: table %s left with %d pins", c.name, tab.Name, tab.Pins())
			}
		}
	}
}
