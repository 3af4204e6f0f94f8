package core

import (
	"context"
	"fmt"
	"testing"

	"astore/internal/query"
	"astore/internal/sql"
	"astore/internal/storage"
	"astore/internal/testutil"
)

func allVariants() []Variant {
	return []Variant{Auto, RowWise, RowWisePF, ColWise, ColWisePF, ColWisePFG}
}

// execView acquires a view, recompiles *c unless it is still fresh in it,
// and executes: the serving path, so a repeated plan merges cached
// partials.
func execView(eng *Engine, c **Compiled, q *query.Query) (*query.Result, Stats, error) {
	var stats Stats
	v := eng.Acquire()
	defer v.Release()
	if *c == nil || !(*c).FreshIn(v) {
		var err error
		if *c, err = v.Compile(q); err != nil {
			return nil, stats, err
		}
	}
	res, err := eng.Exec(context.Background(), v, *c, &stats)
	return res, stats, err
}

// planOf compiles q on a fresh view and returns its plan.
func planOf(eng *Engine, q *query.Query) (*plan, error) {
	v := eng.Acquire()
	defer v.Release()
	c, err := v.Compile(q)
	if err != nil {
		return nil, err
	}
	return c.pl, nil
}

// explain compiles q on a fresh view and renders its plan.
func explain(eng *Engine, q *query.Query) (string, error) {
	v := eng.Acquire()
	defer v.Release()
	c, err := v.Compile(q)
	if err != nil {
		return "", err
	}
	return c.Explain(v), nil
}

// engineTarget is the matrix axis of one engine configuration: a fresh
// Engine with opt over the cell's fact, answering through execView with one
// plan per query. check, if set, sees every run's stats.
func engineTarget(name string, opt Options, check func(eng *Engine, r testutil.Run, st Stats) error) testutil.Target {
	return testutil.Target{Name: name, Open: func(t testing.TB, fact *storage.Table) func(*query.Query, testutil.Run) (*query.Result, error) {
		eng, err := New(fact, opt)
		if err != nil {
			t.Fatal(err)
		}
		plans := make(map[*query.Query]*Compiled)
		return func(q *query.Query, r testutil.Run) (*query.Result, error) {
			c := plans[q]
			res, st, err := execView(eng, &c, q)
			plans[q] = c
			if err == nil && check != nil {
				err = check(eng, r, st)
			}
			return res, err
		}
	}}
}

// matrix diffs queries over one fixture, served by every target, against
// NaiveRun at tolerance 1e-9.
func matrix(queries []*query.Query, f testutil.Fixture, targets ...testutil.Target) testutil.Matrix {
	return testutil.Matrix{Queries: queries, Fixtures: []testutil.Fixture{f}, Targets: targets, Render: sql.Render, Tol: 1e-9}
}

// variantTargets is every scan variant at each worker count.
func variantTargets(workers ...int) []testutil.Target {
	var ts []testutil.Target
	for _, v := range allVariants() {
		for _, w := range workers {
			ts = append(ts, engineTarget(fmt.Sprintf("%s/w%d", v, w), Options{Variant: v, Workers: w}, nil))
		}
	}
	return ts
}
