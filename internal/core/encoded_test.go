package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"astore/internal/datagen/ssb"
	"astore/internal/expr"
	"astore/internal/query"
	"astore/internal/sql"
	"astore/internal/storage"
	"astore/internal/testutil"
)

// encodedStar builds a fact table whose sealed chunks land on every sealed
// encoding shape — RLE over int32 (an AIR foreign key and a plain int),
// int64 and dictionary codes; FoR over int32 (an AIR foreign key and a
// measure) and int64 (one of them around a negative Base) — next to plain
// floats and full-range ints, with FKs to two small dimensions. sorted lays
// the date FK out in runs, as a sort key would, so it seals as RLE;
// otherwise it is random and seals as FoR. With target > 0 the fact seals
// segments of that many rows and encodes them; target 0 leaves the
// identical rows flat, the oracle's input. The same rows are deleted in both.
func encodedStar(t testing.TB, n, target int, sorted bool) *storage.Table {
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
	price, cost, net, lot := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	frac := make([]float64, n)
	tag := storage.NewDictCol(storage.NewDict())
	for i := 0; i < n; i++ {
		dk[i] = int32(i/150) % nDate // RLE int32, AIR FK
		if !sorted {
			dk[i] = int32(rng.Intn(nDate)) // FoR int32, AIR FK
		}
		ck[i] = int32(rng.Intn(nCust))
		batch[i] = int32(i / 100) // RLE int32
		qty[i] = int32(rng.Intn(50) + 1)
		wide[i] = int32(uint32(i) * 2654435761) // stays plain
		price[i] = int64(rng.Intn(10000) + 100)
		cost[i] = int64(rng.Intn(5000))
		net[i] = cost[i] - 2500                   // FoR int64 with a negative Base
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
	fact.MustAddColumn("f_net", storage.NewInt64Col(net))
	fact.MustAddColumn("f_lot", storage.NewInt64Col(lot))
	fact.MustAddColumn("f_frac", storage.NewFloat64Col(frac))
	fact.MustAddColumn("f_tag", tag)
	fact.MustAddFK("f_dk", date)
	fact.MustAddFK("f_ck", customer)
	if target > 0 {
		if err := fact.SetSegmentTarget(target); err != nil {
			t.Fatal(err)
		}
		if err := fact.EncodeSealed(); err != nil {
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

// forPredicates is the FoR filter matrix over column col: every comparison
// Op against every literal, with integer and float operands, BETWEEN over
// neighbouring literals (and the empty reversed range), and IN lists that
// mix values inside and outside the frame.
func forPredicates(col string, lits []int64) []expr.Pred {
	var ps []expr.Pred
	for _, v := range lits {
		for _, op := range []expr.Op{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge} {
			ps = append(ps,
				expr.Pred{Col: col, Op: op, Kind: expr.KInt, IVal: v},
				expr.Pred{Col: col, Op: op, Kind: expr.KFloat, FVal: float64(v) + 0.5})
		}
	}
	for i := 1; i < len(lits); i++ {
		lo, hi := lits[i-1], lits[i]
		ps = append(ps, expr.IntBetween(col, lo, hi), expr.IntBetween(col, hi, lo),
			expr.FloatBetween(col, float64(lo), float64(hi)+0.5))
	}
	return append(ps, expr.IntBetween(col, lits[0], lits[len(lits)-1]),
		expr.IntIn(col, lits...), expr.IntIn(col, lits[1], lits[3], lits[len(lits)-2]))
}

// forLiterals picks literals around the frame of col's FoR chunk in the
// first sealed segment: below Base, at Base, inside the frame, at its top
// Base+2^Width−1 and just above it, and the int64 extremes — plus the int32
// ones on an int32 column, where an int64 literal must not be truncated.
func forLiterals(t testing.TB, seg *storage.Table, col string) []int64 {
	t.Helper()
	for _, sv := range seg.SegViews() {
		f, ok := sv.Cols[col].(*storage.FoRCol)
		if !ok {
			continue
		}
		top := f.Base + int64(1)<<f.Width - 1
		lits := []int64{f.Base - 1, f.Base, f.Base + (top-f.Base)/3, top, top + 1}
		if f.Typ == storage.TInt32 {
			lits = append([]int64{math.MinInt32}, append(lits, math.MaxInt32)...)
		}
		return append([]int64{math.MinInt64}, append(lits, math.MaxInt64)...)
	}
	t.Fatalf("fixture: %s has no FoR chunk", col)
	return nil
}

// encodedFixture is encodedStar as a matrix fixture: its served copy seals
// segments of target rows, and every sealed chunk must carry the encoding
// the fixture was built to produce.
func encodedFixture(n, target int, sorted bool) testutil.Fixture {
	want := map[string]storage.Encoding{
		"f_dk": storage.EncFoR, "f_batch": storage.EncRLE, "f_lot": storage.EncRLE, "f_tag": storage.EncRLE,
		"f_ck": storage.EncFoR, "f_qty": storage.EncFoR, "f_price": storage.EncFoR, "f_cost": storage.EncFoR,
		"f_net": storage.EncFoR, "f_wide": storage.EncPlain, "f_frac": storage.EncPlain,
	}
	if sorted {
		want["f_dk"] = storage.EncRLE
	}
	name := map[bool]string{true: "sorted", false: "scattered"}[sorted]
	return testutil.Fixture{Name: name, Build: func(t testing.TB, flat bool) *storage.Table {
		if flat {
			return encodedStar(t, n, 0, sorted)
		}
		seg := encodedStar(t, n, target, sorted)
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
		return seg
	}}
}

// TestEncodedMatchesOracle is the engine-level differential test over
// encoded sealed segments, on two layouts of one fact: date FK in runs (RLE)
// and scattered (FoR). Every variant, plus Auto forced onto the hash
// backend, serial and parallel, with the aggregate cache on (the warm run
// merges cached partials) and off, must return the oracle's answer over the
// flat twin exactly; so must every predicate of the FoR filter matrix,
// column-wise and row-wise.
func TestEncodedMatchesOracle(t *testing.T) {
	const n, target = 6000, 512
	fixtures := []testutil.Fixture{encodedFixture(n, target, true), encodedFixture(n, target, false)}
	admitted := func(_ *Engine, _ testutil.Run, st Stats) error {
		if st.EncodedSegments == 0 && st.AggCacheHits == 0 {
			return fmt.Errorf("no encoded segment admitted")
		}
		return nil
	}
	engines := []Options{{Variant: Auto, MaxArrayGroups: 2}}
	for _, v := range allVariants() {
		engines = append(engines, Options{Variant: v})
	}
	var targets []testutil.Target
	for _, o := range engines {
		name := o.Variant.String()
		if o.MaxArrayGroups == 2 {
			name += "/hash"
		}
		for _, workers := range []int{1, 4} {
			for _, cacheBytes := range []int64{0, -1} {
				o.Workers, o.AggCacheBytes = workers, cacheBytes
				targets = append(targets, engineTarget(fmt.Sprintf("%s/w%d/cache=%v", name, workers, cacheBytes >= 0), o, admitted))
			}
		}
	}
	testutil.Matrix{Queries: encodedQueries(), Fixtures: fixtures, Targets: targets, Render: sql.Render}.Run(t)

	// The FoR predicate matrix, over literals around the frames of both
	// layouts' first sealed segment.
	var preds []*query.Query
	seen := make(map[string]bool)
	for _, sorted := range []bool{true, false} {
		seg := encodedStar(t, n, target, sorted)
		for _, col := range []string{"f_qty", "f_net"} {
			for _, p := range forPredicates(col, forLiterals(t, seg, col)) {
				if name := p.String(); !seen[name] {
					seen[name] = true
					preds = append(preds, query.New(name).Where(p).Agg(expr.CountStar("n"), expr.SumOf(expr.C("f_price"), "price")))
				}
			}
		}
	}
	testutil.Matrix{
		Queries:  preds,
		Fixtures: fixtures,
		Targets: []testutil.Target{
			engineTarget(Auto.String(), Options{Variant: Auto, AggCacheBytes: -1}, nil),
			engineTarget(RowWise.String(), Options{Variant: RowWise, AggCacheBytes: -1}, nil),
		},
		Render: sql.Render,
	}.Run(t)
}

// TestEncodedBindAllocatesNoRows: binding a plan to a sealed, encoded
// segment costs O(runs + plan), never O(rows). Q1.1- and Q3.1-shaped plans,
// on the array and the hash backend, bound to one 64 Ki-row segment sorted
// by its date FK, allocate under 64 KiB per bind; decoding a single int32
// chunk of that segment would take 256 KiB.
func TestEncodedBindAllocatesNoRows(t *testing.T) {
	const rows = 1 << 16
	data := ssb.Generate(ssb.Config{SF: 0.012, Seed: 1})
	fact := data.Lineorder
	for _, err := range []error{fact.SetSortKeys("lo_orderdate"), fact.SetSegmentTarget(rows), fact.EncodeSealed()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := storage.Consolidate(data.DB, fact); err != nil {
		t.Fatal(err)
	}
	sv := fact.SegViews()[0]
	if !sv.Sealed || sv.N != rows ||
		storage.ChunkEncoding(sv.Cols["lo_orderdate"]) != storage.EncRLE ||
		storage.ChunkEncoding(sv.Cols["lo_custkey"]) != storage.EncFoR ||
		storage.ChunkEncoding(sv.Cols["lo_revenue"]) != storage.EncFoR {
		t.Fatalf("fixture: first segment sealed %v, %d rows, not the sorted RLE/FoR layout", sv.Sealed, sv.N)
	}
	for _, q := range []*query.Query{ssb.Q1_1(), ssb.Q3_1()} {
		for _, v := range []Variant{Auto, ColWisePF} {
			eng, err := New(fact, Options{Variant: v})
			if err != nil {
				t.Fatal(err)
			}
			pl, err := planOf(eng, q)
			if err != nil {
				t.Fatal(err)
			}
			if pl.useArray != (v == Auto) {
				t.Fatalf("%s [%s]: array backend %v", q.Name, v, pl.useArray)
			}
			const binds = 10
			perBind := uint64(math.MaxUint64)
			for attempt := 0; attempt < 3; attempt++ { // TotalAlloc is process-wide
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < binds; i++ {
					if _, err := pl.bind(&sv); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				perBind = min(perBind, (after.TotalAlloc-before.TotalAlloc)/binds)
			}
			t.Logf("%s [%s]: %d bytes per bind", q.Name, v, perBind)
			if perBind > 64<<10 {
				t.Errorf("%s [%s]: binding a %d-row encoded segment allocated %d bytes, want < 64 KiB", q.Name, v, rows, perBind)
			}
		}
	}
}
