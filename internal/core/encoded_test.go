package core

import (
	"fmt"
	"math/rand"
	"testing"

	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/storage"
)

// encodedStar builds a fact table whose sealed chunks land on every sealed
// encoding shape — RLE over int32 (an AIR foreign key and a plain int),
// int64 and dictionary codes; FoR over int32 (an AIR foreign key and a
// measure) and int64 — next to plain floats and full-range ints, with FKs to
// two small dimensions. With target > 0 the fact seals segments of that many
// rows and encodes them; target 0 leaves the identical rows flat, the
// oracle's input. The same rows are deleted in both.
func encodedStar(t *testing.T, n, target int) *storage.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(11))

	const nDate, nCust = 40, 50
	years := make([]int32, nDate)
	months := storage.NewDictCol(storage.NewDict())
	for i := range years {
		years[i] = int32(1992 + i/6)
		months.Append([]string{"Jan", "Feb", "Mar", "Apr", "May"}[i%5])
	}
	date := storage.NewTable("date")
	date.MustAddColumn("d_year", storage.NewInt32Col(years))
	date.MustAddColumn("d_month", months)

	regions := []string{"ASIA", "AMERICA", "EUROPE", "AFRICA"}
	cRegion := storage.NewDictCol(storage.NewDict())
	cBal := make([]int64, nCust)
	for i := range cBal {
		cRegion.Append(regions[rng.Intn(len(regions))])
		cBal[i] = int64(rng.Intn(1000))
	}
	customer := storage.NewTable("customer")
	customer.MustAddColumn("c_region", cRegion)
	customer.MustAddColumn("c_balance", storage.NewInt64Col(cBal))

	dk, ck, batch, qty, wide := make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n)
	price, cost, lot := make([]int64, n), make([]int64, n), make([]int64, n)
	frac := make([]float64, n)
	tag := storage.NewDictCol(storage.NewDict())
	for i := 0; i < n; i++ {
		dk[i] = int32(i/150) % nDate // RLE int32, AIR FK
		ck[i] = int32(rng.Intn(nCust))
		batch[i] = int32(i / 100) // RLE int32
		qty[i] = int32(rng.Intn(50) + 1)
		wide[i] = int32(uint32(i) * 2654435761) // stays plain
		price[i] = int64(rng.Intn(10000) + 100)
		cost[i] = int64(rng.Intn(5000))
		lot[i] = int64(i/64) * 1000               // RLE int64
		frac[i] = float64(rng.Intn(4)) / 4        // exact in binary: sums stay exact
		tag.Append(regions[(i/128)%len(regions)]) // RLE dict
	}
	fact := storage.NewTable("fact")
	fact.MustAddColumn("f_dk", storage.NewInt32Col(dk))
	fact.MustAddColumn("f_ck", storage.NewInt32Col(ck))
	fact.MustAddColumn("f_batch", storage.NewInt32Col(batch))
	fact.MustAddColumn("f_qty", storage.NewInt32Col(qty))
	fact.MustAddColumn("f_wide", storage.NewInt32Col(wide))
	fact.MustAddColumn("f_price", storage.NewInt64Col(price))
	fact.MustAddColumn("f_cost", storage.NewInt64Col(cost))
	fact.MustAddColumn("f_lot", storage.NewInt64Col(lot))
	fact.MustAddColumn("f_frac", storage.NewFloat64Col(frac))
	fact.MustAddColumn("f_tag", tag)
	fact.MustAddFK("f_dk", date)
	fact.MustAddFK("f_ck", customer)
	if target > 0 {
		if err := fact.SetSegmentTarget(target); err != nil {
			t.Fatal(err)
		}
		if err := fact.SetSealedEncodings(true); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range []int{3, 700, 1499, n - 2} { // sealed and tail rows
		if err := fact.Delete(row); err != nil {
			t.Fatal(err)
		}
	}
	return fact
}

// encodedQueries lands every engine consumer of a root chunk on an encoded
// one: root filters, AIR probes, numeric, dictionary and leaf group-bys,
// every aggregate kind, and the recognized fast forms. Every value is an
// integer or a multiple of 1/4, so sums are exact and results compare with
// zero tolerance.
func encodedQueries() []*query.Query {
	sum := func(e expr.NumExpr, as string) expr.Aggregate { return expr.SumOf(e, as) }
	c := expr.C
	return []*query.Query{
		query.New("filter-rle32").
			Where(expr.IntBetween("f_batch", 10, 30)).
			Agg(expr.CountStar("n"), sum(c("f_price"), "price")),
		query.New("filter-rle64-group-rle-dict").
			Where(expr.IntGe("f_lot", 20000)).
			GroupByCols("f_tag").
			Agg(expr.CountStar("n"), sum(c("f_lot"), "lot"), expr.AvgOf(c("f_lot"), "avg")).
			OrderAsc("f_tag"),
		query.New("filter-rle-dict-group-leaf-rle-fk").
			Where(expr.StrIn("f_tag", "ASIA", "EUROPE")).
			GroupByCols("d_year").
			Agg(sum(c("f_qty"), "qty"), expr.MinOf(c("f_price"), "lo"), expr.MaxOf(c("f_price"), "hi")).
			OrderAsc("d_year"),
		query.New("filter-for-group-leaf-for-fk").
			Where(expr.IntLt("f_qty", 25), expr.IntBetween("f_price", 2000, 6000)).
			GroupByCols("c_region").
			Agg(expr.CountStar("n"), sum(expr.Mul(c("f_price"), c("f_qty")), "rev")).
			OrderAsc("c_region"),
		query.New("probe-rle-fk").
			Where(expr.IntEq("d_year", 1993), expr.StrIn("d_month", "Jan", "Mar")).
			GroupByCols("f_batch").
			Agg(expr.CountStar("n"), sum(c("f_lot"), "lot")).
			OrderAsc("f_batch"),
		query.New("probe-for-fk").
			Where(expr.StrEq("c_region", "ASIA")).
			GroupByCols("f_qty").
			Agg(sum(expr.Subtract(c("f_price"), c("f_cost")), "profit"), sum(c("c_balance"), "bal")).
			OrderAsc("f_qty"),
		query.New("group-rle-dict-and-num").
			GroupByCols("f_tag", "f_batch").
			Agg(expr.CountStar("n"), sum(c("f_batch"), "b"), expr.MinOf(c("f_lot"), "lo"), expr.MaxOf(c("f_qty"), "hi")).
			OrderAsc("f_tag").OrderAsc("f_batch"),
		query.New("fast-forms").
			GroupByCols("d_year").
			Agg(sum(c("f_lot"), "a-rle"),
				sum(c("f_price"), "a-for"),
				sum(expr.Mul(c("f_lot"), c("f_batch")), "ab-rle"),
				sum(expr.Subtract(c("f_lot"), c("f_price")), "a-b"),
				sum(expr.Mul(c("f_price"), expr.Subtract(expr.K(1), c("f_frac"))), "a(1-b)"),
				expr.AvgOf(c("f_qty"), "avg-for32"),
				expr.CountStar("n")).
			OrderAsc("d_year"),
		query.New("generic-and-wide").
			Where(expr.IntGe("f_wide", 0)).
			Agg(sum(expr.Add(c("f_lot"), c("f_qty")), "g"), sum(c("d_year"), "leaf-via-rle"), expr.MaxOf(c("f_wide"), "w")),
	}
}

// TestEncodedMatchesOracle is the engine-level differential test over
// encoded sealed segments: every variant, serial and parallel, with the
// aggregate cache on (run twice, so the second run merges cached partials)
// and off, must return the oracle's answer over the flat twin exactly.
func TestEncodedMatchesOracle(t *testing.T) {
	const n, target = 6000, 512
	flat := encodedStar(t, n, 0)
	seg := encodedStar(t, n, target)

	want := map[string]storage.Encoding{
		"f_dk": storage.EncRLE, "f_batch": storage.EncRLE, "f_lot": storage.EncRLE, "f_tag": storage.EncRLE,
		"f_ck": storage.EncFoR, "f_qty": storage.EncFoR, "f_price": storage.EncFoR, "f_cost": storage.EncFoR,
		"f_wide": storage.EncPlain, "f_frac": storage.EncPlain,
	}
	sealed := 0
	for _, sv := range seg.SegViews() {
		if !sv.Sealed {
			continue
		}
		sealed++
		for col, enc := range want {
			if got := storage.ChunkEncoding(sv.Cols[col]); got != enc {
				t.Fatalf("fixture: %s sealed as %s, want %s", col, got, enc)
			}
		}
	}
	if sealed != n/target {
		t.Fatalf("fixture: %d sealed segments, want %d", sealed, n/target)
	}

	for _, q := range encodedQueries() {
		oracle, err := naiveRun(flat, q)
		if err != nil {
			t.Fatalf("%s: oracle: %v", q.Name, err)
		}
		for _, v := range allVariants() {
			for _, workers := range []int{1, 4} {
				for _, cacheBytes := range []int64{0, -1} {
					label := fmt.Sprintf("%s [%s w=%d cache=%v]", q.Name, v, workers, cacheBytes >= 0)
					eng, err := New(seg, Options{Variant: v, Workers: workers, AggCacheBytes: cacheBytes})
					if err != nil {
						t.Fatal(err)
					}
					var c *Compiled
					for run := 0; run < 2; run++ {
						got, stats := execFresh(t, eng, &c, q)
						if err := query.Diff(oracle, got, 0); err != nil {
							t.Fatalf("%s run %d: %v", label, run, err)
						}
						if stats.EncodedSegments == 0 && stats.AggCacheHits == 0 {
							t.Fatalf("%s run %d: no encoded segment admitted", label, run)
						}
					}
				}
			}
		}
	}
}
