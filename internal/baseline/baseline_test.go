package baseline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/sql"
	"astore/internal/storage"
	"astore/internal/testutil"
)

// engineTargets serves each conventional engine over the cell's fact or,
// with denormalize, over its materialized universal table.
func engineTargets(denormalize bool) []testutil.Target {
	var ts []testutil.Target
	for _, e := range []struct {
		name  string
		build func(*storage.Table) Engine
	}{
		{"hashjoin", func(fact *storage.Table) Engine { return NewHashJoinEngine(fact) }},
		{"vector", func(fact *storage.Table) Engine { return NewVectorEngine(fact) }},
	} {
		ts = append(ts, testutil.Target{Name: e.name, Open: func(t testing.TB, fact *storage.Table) func(*query.Query, testutil.Run) (*query.Result, error) {
			if denormalize {
				wide, err := Denormalize(fact)
				if err != nil {
					t.Fatal(err)
				}
				if wide.NumRows() != fact.NumRows() || len(wide.FKs()) != 0 {
					t.Fatalf("wide table: %d rows (fact %d), %d foreign keys", wide.NumRows(), fact.NumRows(), len(wide.FKs()))
				}
				fact = wide
			}
			eng := e.build(fact)
			return func(q *query.Query, _ testutil.Run) (*query.Result, error) { return eng.Run(q) }
		}})
	}
	return ts
}

// TestBaselineEnginesMatchOracleStar: both conventional engines must return
// exactly the oracle's result on the full query battery.
func TestBaselineEnginesMatchOracleStar(t *testing.T) {
	testutil.Matrix{
		Queries:  testutil.StarQueries(),
		Fixtures: []testutil.Fixture{testutil.Star(42, 5000, 0)},
		Targets:  engineTargets(false),
		Render:   sql.Render,
		Tol:      1e-9,
	}.Run(t)
}

// TestBaselineEnginesMatchOracleSnowflake exercises the recursive hash
// semi-join qualification through order -> customer -> nation -> region.
func TestBaselineEnginesMatchOracleSnowflake(t *testing.T) {
	testutil.Matrix{
		Queries:  testutil.SnowflakeQueries(),
		Fixtures: []testutil.Fixture{testutil.Snowflake(7, 4000, 0)},
		Targets:  engineTargets(false),
		Render:   sql.Render,
		Tol:      1e-9,
	}.Run(t)
}

// TestDenormalizePreservesQueries: any engine over the materialized
// universal table must return the same results as over the star schema —
// with the *same* query text, since universal-table columns keep their
// names.
func TestDenormalizePreservesQueries(t *testing.T) {
	testutil.Matrix{
		Queries:  testutil.StarQueries(),
		Fixtures: []testutil.Fixture{testutil.Star(3, 3000, 0)},
		Targets:  engineTargets(true),
		Render:   sql.Render,
		Tol:      1e-9,
	}.Run(t)
}

// TestDenormalizeSnowflake flattens a 4-hop snowflake.
func TestDenormalizeSnowflake(t *testing.T) {
	testutil.Matrix{
		Queries:  testutil.SnowflakeQueries(),
		Fixtures: []testutil.Fixture{testutil.Snowflake(11, 2000, 0)},
		Targets:  engineTargets(true),
		Render:   sql.Render,
		Tol:      1e-9,
	}.Run(t)
}

// TestDenormalizeMemoryBlowup: the universal table must cost substantially
// more memory than the star schema (the space half of the paper's Table 5
// trade-off: 262 GB vs 45.8 GB at SF=100).
func TestDenormalizeMemoryBlowup(t *testing.T) {
	fact := testutil.BuildStar(5, 20000)
	star := fact.MemBytes() +
		fact.FK("f_dk").MemBytes() + fact.FK("f_ck").MemBytes() + fact.FK("f_pk").MemBytes()
	wide, err := Denormalize(fact)
	if err != nil {
		t.Fatal(err)
	}
	if wide.MemBytes() <= star {
		t.Fatalf("denormalized table not larger: %d vs %d", wide.MemBytes(), star)
	}
}

func TestDenormalizePropagatesDeletes(t *testing.T) {
	fact := testutil.BuildStar(5, 500)
	for _, r := range []int{5, 100, 499} {
		if err := fact.Delete(r); err != nil {
			t.Fatal(err)
		}
	}
	wide, err := Denormalize(fact)
	if err != nil {
		t.Fatal(err)
	}
	if wide.NumLive() != 497 {
		t.Fatalf("wide live rows = %d, want 497", wide.NumLive())
	}
	q := query.New("q").Agg(expr.CountStar("n"))
	res, err := NewVectorEngine(wide).Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Aggs[0] != 497 {
		t.Fatalf("count over deleted rows = %+v", res.Rows)
	}
}

func TestDenormalizeRejectsDuplicateNames(t *testing.T) {
	dim := storage.NewTable("d")
	dim.MustAddColumn("x", storage.NewInt64Col([]int64{1}))
	fact := storage.NewTable("f")
	fact.MustAddColumn("fk", storage.NewInt32Col([]int32{0}))
	fact.MustAddColumn("x", storage.NewInt64Col([]int64{9}))
	fact.MustAddFK("fk", dim)
	if _, err := Denormalize(fact); err == nil {
		t.Fatal("duplicate column names accepted")
	}
}

func TestBaselineErrors(t *testing.T) {
	fact := testutil.BuildStar(1, 100)
	for _, eng := range []Engine{NewHashJoinEngine(fact), NewVectorEngine(fact)} {
		cases := []*query.Query{
			query.New("bad-pred").Where(expr.IntEq("nope", 1)).Agg(expr.CountStar("c")),
			query.New("bad-group").GroupByCols("nope").Agg(expr.CountStar("c")),
			query.New("bad-agg").Agg(expr.SumOf(expr.C("nope"), "s")),
			query.New("no-aggs"),
			query.New("float-group").GroupByCols("f_frac").Agg(expr.CountStar("c")),
		}
		for _, q := range cases {
			if _, err := eng.Run(q); err == nil {
				t.Errorf("[%s] %s: no error", eng.Name(), q.Name)
			}
		}
	}
}

func TestPhaseStatsPopulated(t *testing.T) {
	fact := testutil.BuildStar(2, 3000)
	q := query.New("q").
		Where(expr.StrEq("c_region", "ASIA")).
		GroupByCols("c_nation").
		Agg(expr.SumOf(expr.C("f_revenue"), "rev"))
	he := NewHashJoinEngine(fact)
	if _, err := he.Run(q); err != nil {
		t.Fatal(err)
	}
	if he.Stats.PredNS <= 0 || he.Stats.GroupNS <= 0 {
		t.Errorf("hashjoin stats = %+v", he.Stats)
	}
	ve := NewVectorEngine(fact)
	if _, err := ve.Run(q); err != nil {
		t.Fatal(err)
	}
	if ve.Stats.PredNS <= 0 {
		t.Errorf("vector stats = %+v", ve.Stats)
	}
}

// Property: on random star schemas and random queries, both baseline
// engines and both denormalized variants agree with the oracle.
func TestBaselineQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fact := testutil.BuildStar(seed, rng.Intn(1500)+100)
		q := query.New("rand")
		if rng.Intn(2) == 0 {
			q.Where(expr.IntBetween("f_discount", 0, int64(rng.Intn(8))))
		}
		if rng.Intn(2) == 0 {
			q.Where(expr.StrEq("c_region", "ASIA"))
		}
		if rng.Intn(2) == 0 {
			q.Where(expr.StrIn("p_brand", "BRAND#1", "BRAND#7"))
		}
		switch rng.Intn(3) {
		case 0:
			q.GroupByCols("c_nation")
		case 1:
			q.GroupByCols("d_year", "p_brand")
		}
		q.Agg(expr.CountStar("cnt"), expr.SumOf(expr.C("f_revenue"), "rev"))

		want, err := testutil.NaiveRun(fact, q)
		if err != nil {
			return false
		}
		wide, err := Denormalize(fact)
		if err != nil {
			return false
		}
		for _, eng := range []Engine{
			NewHashJoinEngine(fact), NewVectorEngine(fact),
			NewHashJoinEngine(wide), NewVectorEngine(wide),
		} {
			got, err := eng.Run(q)
			if err != nil {
				return false
			}
			if err := query.Diff(want, got, 1e-9); err != nil {
				t.Logf("seed %d [%s]: %v", seed, eng.Name(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
