// Package-level benchmarks: one benchmark family per table/figure of the
// paper's evaluation (§6). These run at a small scale factor so that
// `go test -bench=. -benchmem` finishes quickly; the full parameter sweeps
// with paper-style reports live in cmd/astore-bench (for example
// `astore-bench -exp table5 -sf 0.1`).
//
//	BenchmarkFig1Engines    Fig. 1  — denormalization vs normal engines, SSB average
//	BenchmarkTable2Joins    Table 2 — AIR vs NPO vs PRO join kernels
//	BenchmarkFig8ColumnJoins Fig. 8 — FK-PK column joins, kernels vs engines
//	BenchmarkTable3*        Table 3 — predicate / grouping / star-join operators
//	BenchmarkTable4Denorm   Table 4 — engines over the denormalized table
//	BenchmarkTable5SSB      Table 5 — full SSB per engine
//	BenchmarkFig9Variants   Fig. 9  — the five AIRScan variants
//	BenchmarkHighCardGroupBy §4.3  — the hash fallback on a sparse group-by
//	BenchmarkFig10Stages    Fig. 10 — per-stage breakdown variants
package astore_test

import (
	"sync"
	"testing"

	"astore/internal/baseline"
	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/expr"
	"astore/internal/join"
	"astore/internal/query"
	"astore/internal/sql"
	"astore/internal/storage"
)

const benchSF = 0.02 // 120k lineorder rows

var (
	benchOnce sync.Once
	benchSSB  *ssb.Data
	benchWide *storage.Table
)

func benchData(tb testing.TB) (*ssb.Data, *storage.Table) {
	tb.Helper()
	benchOnce.Do(func() {
		benchSSB = ssb.Generate(ssb.Config{SF: benchSF, Seed: 1})
		var err error
		benchWide, err = baseline.Denormalize(benchSSB.Lineorder)
		if err != nil {
			panic(err)
		}
	})
	return benchSSB, benchWide
}

// runAll executes all 13 SSB queries once.
func runAll(b *testing.B, run func(*query.Query) (*query.Result, error)) {
	b.Helper()
	for _, q := range ssb.Queries() {
		if _, err := run(q); err != nil {
			b.Fatalf("%s: %v", q.Name, err)
		}
	}
}

func newCore(b *testing.B, root *storage.Table, v core.Variant) *core.Engine {
	b.Helper()
	eng, err := core.New(root, core.Options{Variant: v})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkFig1Engines measures the Fig. 1 lineup: each engine and its
// denormalized variant over the 13 SSB queries.
func BenchmarkFig1Engines(b *testing.B) {
	data, wide := benchData(b)
	engines := []struct {
		name string
		run  func(*query.Query) (*query.Result, error)
	}{
		{"HashJoin", baseline.NewHashJoinEngine(data.Lineorder).Run},
		{"HashJoin_D", baseline.NewHashJoinEngine(wide).Run},
		{"Vector", baseline.NewVectorEngine(data.Lineorder).Run},
		{"Vector_D", baseline.NewVectorEngine(wide).Run},
		{"AStore", newCore(b, data.Lineorder, core.Auto).Run},
		{"Denorm", newCore(b, wide, core.Auto).Run},
	}
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runAll(b, e.run)
			}
		})
	}
}

// BenchmarkTable2Joins measures the join kernels of Table 2 on four
// representative fact:dimension ratios (the full 19-join sweep is
// `astore-bench -exp table2`).
func BenchmarkTable2Joins(b *testing.B) {
	shapes := []struct {
		name        string
		nFact, nDim int
	}{
		{"SmallDim_120k:51", 120_000, 51},    // lineorder⋈date class
		{"MidDim_120k:4k", 120_000, 4_000},   // lineorder⋈part class
		{"BigDim_120k:30k", 120_000, 30_000}, // lineitem⋈orders class
		{"OneToOne_64k:64k", 64_000, 64_000}, // workload B class
	}
	for _, s := range shapes {
		in := join.MakeInput(s.nDim, s.nFact, 7)
		b.Run(s.name, func(b *testing.B) {
			b.Run("NPO", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					join.NPO(in.DimKeys, in.Payload, in.FK, 1)
				}
			})
			b.Run("PRO", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					join.PRO(in.DimKeys, in.Payload, in.FK, 1)
				}
			})
			b.Run("AIR", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					join.AIR(in.Payload, in.FKPos, 1)
				}
			})
		})
	}
}

// BenchmarkFig8ColumnJoins measures one FK-PK column join as executed by
// each kernel and each engine (Fig. 8).
func BenchmarkFig8ColumnJoins(b *testing.B) {
	in := join.MakeInput(4_000, 120_000, 9)
	dim := storage.NewTable("dim")
	dim.MustAddColumn("d_payload", storage.NewInt64Col(in.Payload))
	fact := storage.NewTable("fact")
	fact.MustAddColumn("fk", storage.NewInt32Col(in.FKPos))
	fact.MustAddFK("fk", dim)
	q := query.New("join").Agg(expr.SumOf(expr.C("d_payload"), "total"))

	b.Run("NPO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.NPO(in.DimKeys, in.Payload, in.FK, 1)
		}
	})
	b.Run("PRO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.PRO(in.DimKeys, in.Payload, in.FK, 1)
		}
	})
	b.Run("SortMerge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.SortMerge(in.DimKeys, in.Payload, in.FK, 1)
		}
	})
	b.Run("AIR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.AIR(in.Payload, in.FKPos, 1)
		}
	})
	b.Run("HashJoinEng", func(b *testing.B) {
		eng := baseline.NewHashJoinEngine(fact)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("VectorEng", func(b *testing.B) {
		eng := baseline.NewVectorEngine(fact)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AStore", func(b *testing.B) {
		eng := newCore(b, fact, core.Auto)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable3Predicates measures predicate processing at the paper's
// four selectivity levels (Table 3, first block).
func BenchmarkTable3Predicates(b *testing.B) {
	const n = 120_000
	const domain = 1 << 16
	fact := storage.NewTable("micro")
	for _, name := range []string{"m_a", "m_b", "m_c", "m_d"} {
		v := make([]int32, n)
		state := uint64(12345)
		for i := range v {
			state = state*6364136223846793005 + 1442695040888963407
			v[i] = int32(state >> 48)
		}
		fact.MustAddColumn(name, storage.NewInt32Col(v))
	}
	for _, k := range []int64{2, 16} {
		cut := int64(domain) / k
		q := query.New("pred").
			Where(
				expr.IntLt("m_a", cut).WithSel(1/float64(k)),
				expr.IntLt("m_b", cut).WithSel(1/float64(k)),
				expr.IntLt("m_c", cut).WithSel(1/float64(k)),
				expr.IntLt("m_d", cut).WithSel(1/float64(k)),
			).
			Agg(expr.CountStar("matches"))
		name := map[int64]string{2: "Sel_1_2pow4", 16: "Sel_1_16pow4"}[k]
		b.Run(name, func(b *testing.B) {
			b.Run("AStore", func(b *testing.B) {
				eng := newCore(b, fact, core.Auto)
				for i := 0; i < b.N; i++ {
					if _, err := eng.Run(q); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("VectorEng", func(b *testing.B) {
				eng := baseline.NewVectorEngine(fact)
				for i := 0; i < b.N; i++ {
					if _, err := eng.Run(q); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("HashJoinEng", func(b *testing.B) {
				eng := baseline.NewHashJoinEngine(fact)
				for i := 0; i < b.N; i++ {
					if _, err := eng.Run(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkTable3Grouping measures the 99-group aggregation micro-benchmark
// (Table 3, second block): aggregation array versus hash aggregation.
func BenchmarkTable3Grouping(b *testing.B) {
	data, _ := benchData(b)
	q := query.New("groupby").
		GroupByCols("lo_discount", "lo_tax").
		Agg(expr.CountStar("cnt"))
	b.Run("ArrayAgg", func(b *testing.B) {
		eng := newCore(b, data.Lineorder, core.ColWisePFG)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HashAgg", func(b *testing.B) {
		eng := newCore(b, data.Lineorder, core.ColWisePF)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("VectorEng", func(b *testing.B) {
		eng := baseline.NewVectorEngine(data.Lineorder)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable3StarJoin measures the star-join micro-benchmark (Table 3,
// third block): the SSB queries reduced to count(*).
func BenchmarkTable3StarJoin(b *testing.B) {
	data, _ := benchData(b)
	queries := ssb.StarJoinQueries()
	b.Run("AStore", func(b *testing.B) {
		eng := newCore(b, data.Lineorder, core.Auto)
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, err := eng.Run(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("VectorEng", func(b *testing.B) {
		eng := baseline.NewVectorEngine(data.Lineorder)
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, err := eng.Run(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("HashJoinEng", func(b *testing.B) {
		eng := baseline.NewHashJoinEngine(data.Lineorder)
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, err := eng.Run(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkTable4Denorm measures the conventional engines over the
// denormalized universal table (Table 4's configuration).
func BenchmarkTable4Denorm(b *testing.B) {
	_, wide := benchData(b)
	b.Run("HashJoin_D", func(b *testing.B) {
		eng := baseline.NewHashJoinEngine(wide)
		for i := 0; i < b.N; i++ {
			runAll(b, eng.Run)
		}
	})
	b.Run("Vector_D", func(b *testing.B) {
		eng := baseline.NewVectorEngine(wide)
		for i := 0; i < b.N; i++ {
			runAll(b, eng.Run)
		}
	})
}

// BenchmarkTable5SSB measures the full SSB suite per engine (Table 5's
// headline comparison: A-Store vs real denormalization vs baselines).
func BenchmarkTable5SSB(b *testing.B) {
	data, wide := benchData(b)
	b.Run("AStore", func(b *testing.B) {
		eng := newCore(b, data.Lineorder, core.Auto)
		for i := 0; i < b.N; i++ {
			runAll(b, eng.Run)
		}
	})
	b.Run("Denorm", func(b *testing.B) {
		eng := newCore(b, wide, core.Auto)
		for i := 0; i < b.N; i++ {
			runAll(b, eng.Run)
		}
	})
	b.Run("Vector", func(b *testing.B) {
		eng := baseline.NewVectorEngine(data.Lineorder)
		for i := 0; i < b.N; i++ {
			runAll(b, eng.Run)
		}
	})
	b.Run("HashJoin", func(b *testing.B) {
		eng := baseline.NewHashJoinEngine(data.Lineorder)
		for i := 0; i < b.N; i++ {
			runAll(b, eng.Run)
		}
	})
}

// BenchmarkFig9Variants measures the five AIRScan variants (Fig. 9 /
// Table 6 ablation).
func BenchmarkFig9Variants(b *testing.B) {
	data, _ := benchData(b)
	for _, v := range []core.Variant{core.RowWise, core.RowWisePF,
		core.ColWise, core.ColWisePF, core.ColWisePFG} {
		b.Run(v.String(), func(b *testing.B) {
			eng := newCore(b, data.Lineorder, v)
			for i := 0; i < b.N; i++ {
				runAll(b, eng.Run)
			}
		})
	}
}

// BenchmarkHighCardGroupBy measures the sparse backend: a group-by whose
// aggregation array would be far too sparse, so Auto falls back to the
// hash table, and nearly every selected row starts a group of its own.
// ns/group is the time per execution over the groups it returns.
func BenchmarkHighCardGroupBy(b *testing.B) {
	data, _ := benchData(b)
	q, err := sql.Parse("SELECT c_name, s_name, d_datekey, sum(lo_revenue) FROM lineorder GROUP BY c_name, s_name, d_datekey")
	if err != nil {
		b.Fatal(err)
	}
	eng, err := core.New(data.Lineorder, core.Options{Variant: core.Auto, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	groups := 0
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(q)
		if err != nil {
			b.Fatal(err)
		}
		groups = len(res.Rows)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*groups), "ns/group")
}

// BenchmarkFig10Stages measures the three column-wise variants whose stage
// breakdown Fig. 10 reports (total time here; the per-stage split is
// `astore-bench -exp fig10`).
func BenchmarkFig10Stages(b *testing.B) {
	data, _ := benchData(b)
	for _, v := range []core.Variant{core.ColWise, core.ColWisePF, core.ColWisePFG} {
		b.Run(v.String(), func(b *testing.B) {
			eng := newCore(b, data.Lineorder, v)
			for i := 0; i < b.N; i++ {
				runAll(b, eng.Run)
			}
		})
	}
}
