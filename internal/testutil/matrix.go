package testutil

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"astore/internal/query"
	"astore/internal/storage"
)

// Matrix is the differential test driver. In every cell of fixtures ×
// targets × writes, the target serves a fresh build of the fixture and runs
// each query cold, then warm; every answer must equal the oracle's over the
// fixture's never-sealing flat twin. With a write, the cell then applies it
// to both copies and runs every query cold and warm again, so a statement
// warmed before the write must see it. A cell ends with nothing pinned.
// The driver knows no engine: each package's tests build their Targets.
type Matrix struct {
	Queries  []*query.Query
	Fixtures []Fixture
	Targets  []Target
	Writes   []Write

	// Oracle answers a query over the twin; nil means NaiveRun.
	Oracle func(twin *storage.Table, q *query.Query) (*query.Result, error)
	// Render prints a failing statement (pass sql.Render, whose text replays
	// in astore-sql and over /v1/query); nil prints the query's name.
	Render func(*query.Query) string
	Tol    float64 // relative aggregate tolerance, as in query.Diff
	Warm   int     // warm runs after each cold run; 0 means 1
}

// Fixture is one data set. Build returns the fact table a cell serves or,
// with flat, its twin: the same rows in a table that never seals. Each cell
// builds its own served copy. Fixtures of a matrix without writes may
// share one twin, whose answers are then computed once.
type Fixture struct {
	Name  string
	Build func(t testing.TB, flat bool) *storage.Table
}

// Target is one engine configuration: Open serves fact, the cell's copy of
// its fixture, and returns the function that answers each run. A target
// fails a run on its own assertions (cache counters, shard metadata) by
// returning an error.
type Target struct {
	Name string
	Open func(t testing.TB, fact *storage.Table) func(q *query.Query, r Run) (*query.Result, error)
}

// Run identifies one execution of a query within a cell.
type Run struct {
	Warm    int  // 0 for the cold run, then 1, 2, ...
	Written bool // the cell's write has been applied
}

// Write is a mutation applied alike to a cell's served copy and its twin.
type Write struct {
	Name  string
	Apply func(fact *storage.Table) error
}

// Run executes every cell, each as a subtest named by its non-empty axis
// names: fixture/target/write.
func (m Matrix) Run(t *testing.T) {
	t.Helper()
	writes := m.Writes
	if len(writes) == 0 {
		writes = []Write{{}}
	}
	shared := make(map[*storage.Table][]*query.Result)
	for _, f := range m.Fixtures {
		for _, w := range writes {
			twin := f.Build(t, true)
			if twin.SegmentTarget() != 0 {
				t.Fatalf("fixture %q: the twin seals segments", f.Name)
			}
			before, after := shared[twin], []*query.Result(nil)
			if before == nil {
				before = m.answers(t, twin)
			}
			if w.Apply == nil {
				shared[twin] = before
			} else {
				if err := w.Apply(twin); err != nil {
					t.Fatalf("fixture %q: write %q on the twin: %v", f.Name, w.Name, err)
				}
				after = m.answers(t, twin)
				if slices.EqualFunc(before, after, func(a, b *query.Result) bool { return query.Diff(a, b, 0) == nil }) {
					t.Fatalf("fixture %q: write %q changes no answer", f.Name, w.Name)
				}
			}
			for _, tg := range m.Targets {
				c := cell{m: m, f: f, tg: tg, w: w, before: before, after: after}
				var axes []string
				for _, s := range []string{f.Name, tg.Name, w.Name} {
					if s != "" {
						axes = append(axes, s)
					}
				}
				if len(axes) > 0 {
					t.Run(strings.Join(axes, "/"), c.run)
				} else {
					c.run(t)
				}
			}
		}
	}
}

func (m Matrix) answers(t *testing.T, twin *storage.Table) []*query.Result {
	t.Helper()
	oracle := m.Oracle
	if oracle == nil {
		oracle = NaiveRun
	}
	out := make([]*query.Result, len(m.Queries))
	for i, q := range m.Queries {
		var err error
		if out[i], err = oracle(twin, q); err != nil {
			t.Fatalf("oracle: %v\n\t%s", err, m.statement(q))
		}
	}
	return out
}

func (m Matrix) statement(q *query.Query) string {
	if m.Render == nil {
		return q.Name
	}
	return m.Render(q)
}

// cell is one fixture × target × write, with the oracle's answers before
// and after the write.
type cell struct {
	m             Matrix
	f             Fixture
	tg            Target
	w             Write
	before, after []*query.Result
}

func (c cell) run(t *testing.T) {
	fact := c.f.Build(t, false)
	serve := c.tg.Open(t, fact)
	c.phase(t, serve, false, c.before)
	if c.w.Apply != nil {
		if err := c.w.Apply(fact); err != nil {
			t.Fatalf("write %q: %v", c.w.Name, err)
		}
		c.phase(t, serve, true, c.after)
	}
	seen := make(map[*storage.Table]bool)
	for tabs := []*storage.Table{fact}; len(tabs) > 0; tabs = tabs[1:] {
		if tab := tabs[0]; !seen[tab] {
			seen[tab] = true
			if n := tab.Pins(); n != 0 {
				t.Errorf("table %s left with %d pins", tab.Name, n)
			}
			tabs = append(tabs, slices.Collect(maps.Values(tab.FKs()))...)
		}
	}
}

// phase runs every query cold and warm and reports each query's first
// failing run with the cell's axes and the statement.
func (c cell) phase(t *testing.T, serve func(*query.Query, Run) (*query.Result, error), written bool, want []*query.Result) {
	t.Helper()
	for i, q := range c.m.Queries {
		failed := false
		for warm := 0; warm <= max(c.m.Warm, 1); warm++ {
			r := Run{Warm: warm, Written: written}
			got, err := serve(q, r)
			if err == nil {
				err = check(q, want[i], got, c.m.Tol)
			}
			if err != nil && !failed {
				failed = true
				t.Errorf("fixture %q, target %q, write %q, run %+v: %s\n\t%s\n\t%v",
					c.f.Name, c.tg.Name, c.w.Name, r, q.Name, c.m.statement(q), err)
			}
		}
	}
}

// check diffs got against the oracle's answer and requires its columns to
// carry the query's names and its rows to follow the query's ORDER BY.
func check(q *query.Query, want, got *query.Result, tol float64) error {
	if err := query.Diff(want, got, tol); err != nil {
		return err
	}
	cols := got.Columns()
	if !slices.Equal(want.Columns(), cols) {
		return fmt.Errorf("columns %v, want %v", cols, want.Columns())
	}
	val := func(r query.Row, c int) query.Value {
		if c < len(r.Keys) {
			return r.Keys[c]
		}
		return query.NumValue(r.Aggs[c-len(r.Keys)])
	}
	for i := 1; i < len(got.Rows); i++ {
		for _, o := range q.OrderBy {
			c := slices.Index(cols, o.Col)
			cmp := val(got.Rows[i-1], c).Compare(val(got.Rows[i], c))
			if o.Desc {
				cmp = -cmp
			}
			if cmp > 0 {
				return fmt.Errorf("rows %d and %d break ORDER BY %s", i-1, i, o.Col)
			}
			if cmp < 0 {
				break
			}
		}
	}
	return nil
}

// Sealed is a fixture over build's fact table whose served copy seals
// segments of target rows (0 leaves it flat); the twin never seals.
func Sealed(name string, target int, build func() *storage.Table) Fixture {
	return Fixture{Name: name, Build: func(t testing.TB, flat bool) *storage.Table {
		fact := build()
		if !flat && target > 0 {
			if err := fact.SetSegmentTarget(target); err != nil {
				t.Fatal(err)
			}
		}
		return fact
	}}
}

// Star and Snowflake are the BuildStar and BuildSnowflake fixtures, whose
// served copies seal segments of target rows.
func Star(seed int64, n, target int) Fixture {
	return Sealed("", target, func() *storage.Table { return BuildStar(seed, n) })
}

func Snowflake(seed int64, n, target int) Fixture {
	return Sealed("", target, func() *storage.Table { return BuildSnowflake(seed, n) })
}

// Catalog returns a catalog of fact and every table it reaches.
func Catalog(fact *storage.Table) *storage.Database {
	cat := storage.NewDatabase()
	for tabs := []*storage.Table{fact}; len(tabs) > 0; tabs = tabs[1:] {
		if tab := tabs[0]; cat.Table(tab.Name) == nil {
			cat.MustAdd(tab)
			refs := tab.FKs()
			for _, col := range slices.Sorted(maps.Keys(refs)) {
				tabs = append(tabs, refs[col])
			}
		}
	}
	return cat
}
