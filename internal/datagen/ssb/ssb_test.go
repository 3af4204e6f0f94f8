package ssb

import (
	"strings"
	"testing"

	"astore/internal/core"
	"astore/internal/query"
	"astore/internal/storage"
	"astore/internal/testutil"
)

func genSmall(t *testing.T) *Data {
	t.Helper()
	return Generate(Config{SF: 0.01, Seed: 1}) // 60,000 lineorder rows
}

func TestSizes(t *testing.T) {
	lo, c, s, p, d := Sizes(100)
	if lo != 600_000_000 || c != 3_000_000 || s != 200_000 || d != 2556 {
		t.Errorf("SF=100 sizes = %d %d %d %d", lo, c, s, d)
	}
	// part = 200000*(1+log2(100)) ~ 1,528,771 (paper's Table 2 value)
	if p < 1_500_000 || p > 1_560_000 {
		t.Errorf("SF=100 part = %d", p)
	}
	lo, c, s, p, _ = Sizes(0.01)
	if lo != 60_000 || c != 300 || s != 20 || p != 2_000 {
		t.Errorf("SF=0.01 sizes = %d %d %d %d", lo, c, s, p)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{SF: 0.001, Seed: 7})
	b := Generate(Config{SF: 0.001, Seed: 7})
	fa := a.Lineorder.Column("lo_revenue").(*storage.Int64Col).V
	fb := b.Lineorder.Column("lo_revenue").(*storage.Int64Col).V
	if len(fa) != len(fb) {
		t.Fatal("nondeterministic row count")
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("nondeterministic at row %d", i)
		}
	}
	c := Generate(Config{SF: 0.001, Seed: 8})
	fc := c.Lineorder.Column("lo_revenue").(*storage.Int64Col).V
	same := true
	for i := range fa {
		if fa[i] != fc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestReferentialIntegrity(t *testing.T) {
	d := genSmall(t)
	if err := d.DB.ValidateAIR(); err != nil {
		t.Fatal(err)
	}
}

func TestDomains(t *testing.T) {
	d := genSmall(t)

	// Regions and nations.
	cRegion := d.Customer.Column("c_region").(*storage.DictCol)
	if cRegion.Dict.Len() != 5 {
		t.Errorf("c_region cardinality = %d", cRegion.Dict.Len())
	}
	cNation := d.Customer.Column("c_nation").(*storage.DictCol)
	if cNation.Dict.Len() > 25 {
		t.Errorf("c_nation cardinality = %d", cNation.Dict.Len())
	}
	cCity := d.Customer.Column("c_city").(*storage.DictCol)
	for _, city := range cCity.Dict.Values() {
		if len(city) != 10 {
			t.Errorf("city %q not 10 chars", city)
		}
	}
	// Q3.3's literal city names are producible by the generator's rule.
	if cityName("UNITED KINGDOM", 1) != "UNITED KI1" || cityName("UNITED KINGDOM", 5) != "UNITED KI5" {
		t.Errorf("cityName rule broken: %q", cityName("UNITED KINGDOM", 1))
	}
	if cityName("PERU", 3) != "PERU     3" {
		t.Errorf("short-nation padding broken: %q", cityName("PERU", 3))
	}

	// Parts: brand nests in category nests in mfgr.
	pm := d.Part.Column("p_mfgr").(*storage.DictCol)
	pc := d.Part.Column("p_category").(*storage.DictCol)
	pb := d.Part.Column("p_brand1").(*storage.DictCol)
	if pm.Dict.Len() != 5 || pc.Dict.Len() != 25 {
		t.Errorf("mfgr=%d category=%d", pm.Dict.Len(), pc.Dict.Len())
	}
	if pb.Dict.Len() > 1000 {
		t.Errorf("brand cardinality = %d", pb.Dict.Len())
	}
	for i := 0; i < d.Part.NumRows(); i++ {
		m, c, b := pm.Value(i), pc.Value(i), pb.Value(i)
		if !strings.HasPrefix(c, m) || !strings.HasPrefix(b, c) {
			t.Fatalf("hierarchy broken at %d: %s %s %s", i, m, c, b)
		}
	}

	// Date: 2556 days over 1992-1998, keys sorted.
	if d.Date.NumRows() != 2556 {
		t.Errorf("date rows = %d", d.Date.NumRows())
	}
	dk := d.Date.Column("d_datekey").(*storage.Int32Col).V
	for i := 1; i < len(dk); i++ {
		if dk[i] <= dk[i-1] {
			t.Fatalf("datekeys not increasing at %d", i)
		}
	}
	yr := d.Date.Column("d_year").(*storage.Int32Col).V
	if yr[0] != 1992 || yr[len(yr)-1] != 1998 {
		t.Errorf("year span %d..%d", yr[0], yr[len(yr)-1])
	}

	// Measures within SSB domains.
	lo := d.Lineorder
	disc := lo.Column("lo_discount").(*storage.Int32Col).V
	qty := lo.Column("lo_quantity").(*storage.Int32Col).V
	tax := lo.Column("lo_tax").(*storage.Int32Col).V
	for i := range disc {
		if disc[i] < 0 || disc[i] > 10 {
			t.Fatalf("discount out of range: %d", disc[i])
		}
		if qty[i] < 1 || qty[i] > 50 {
			t.Fatalf("quantity out of range: %d", qty[i])
		}
		if tax[i] < 0 || tax[i] > 8 {
			t.Fatalf("tax out of range: %d", tax[i])
		}
	}
}

func TestQuerySelectivities(t *testing.T) {
	d := Generate(Config{SF: 0.01, Seed: 3}) // 60k rows for stable estimates
	eng, err := core.New(d.Lineorder, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Spec selectivities (fraction of lineorder): Q1.1 1.9%, Q2.1 0.8%,
	// Q3.1 3.4%, Q4.1 1.6%. Allow wide tolerance at small SF.
	checks := []struct {
		q    *query.Query
		want float64
	}{
		{Q1_1(), 0.019},
		{Q2_1(), 0.008},
		{Q3_1(), 0.034},
		{Q4_1(), 0.016},
	}
	n := float64(d.Lineorder.NumRows())
	for _, c := range checks {
		var st core.Stats
		v := eng.Acquire()
		pc, err := v.Compile(c.q)
		if err == nil {
			_, err = eng.Exec(t.Context(), v, pc, &st)
		}
		v.Release()
		if err != nil {
			t.Fatalf("%s: %v", c.q.Name, err)
		}
		got := float64(st.RowsSelected) / n
		if got < c.want/3 || got > c.want*3 {
			t.Errorf("%s selectivity = %.4f, want ≈ %.4f", c.q.Name, got, c.want)
		}
	}
}

// TestAllQueriesAllVariants runs the full SSB suite on every engine variant
// and checks them against each other and the oracle.
func TestAllQueriesAllVariants(t *testing.T) {
	d := genSmall(t)
	for _, q := range Queries() {
		want, err := testutil.NaiveRun(d.Lineorder, q)
		if err != nil {
			t.Fatalf("%s: oracle: %v", q.Name, err)
		}
		if q.Name == "Q1.1" || q.Name == "Q3.1" {
			if len(want.Rows) == 0 {
				t.Fatalf("%s returned no rows; fixture too small", q.Name)
			}
		}
		for _, v := range []core.Variant{core.Auto, core.RowWise, core.RowWisePF,
			core.ColWise, core.ColWisePF, core.ColWisePFG} {
			eng, err := core.New(d.Lineorder, core.Options{Variant: v, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Run(q)
			if err != nil {
				t.Fatalf("%s [%s]: %v", q.Name, v, err)
			}
			if err := query.Diff(want, got, 1e-9); err != nil {
				t.Errorf("%s [%s]: %v", q.Name, v, err)
			}
		}
	}
}

func TestStarJoinQueries(t *testing.T) {
	sj := StarJoinQueries()
	if len(sj) != 13 {
		t.Fatalf("star-join queries = %d", len(sj))
	}
	for _, q := range sj {
		if len(q.GroupBy) != 0 || len(q.Aggs) != 1 {
			t.Errorf("%s not reduced to count(*)", q.Name)
		}
	}
	d := genSmall(t)
	eng, _ := core.New(d.Lineorder, core.Options{})
	for _, q := range sj {
		want, err := testutil.NaiveRun(d.Lineorder, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if err := query.Diff(want, got, 1e-9); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
	}
}
