package expr

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"astore/internal/storage"
)

func TestIntPredicateMatch(t *testing.T) {
	col := storage.NewInt64Col([]int64{1, 5, 10, 15, 20})
	cases := []struct {
		p    Pred
		want []bool
	}{
		{IntEq("c", 10), []bool{false, false, true, false, false}},
		{IntNe("c", 10), []bool{true, true, false, true, true}},
		{IntLt("c", 10), []bool{true, true, false, false, false}},
		{IntLe("c", 10), []bool{true, true, true, false, false}},
		{IntGt("c", 10), []bool{false, false, false, true, true}},
		{IntGe("c", 10), []bool{false, false, true, true, true}},
		{IntBetween("c", 5, 15), []bool{false, true, true, true, false}},
		{IntIn("c", 1, 20), []bool{true, false, false, false, true}},
		{IntIn("c"), []bool{false, false, false, false, false}},
	}
	for _, tc := range cases {
		m, err := tc.p.Matcher(col)
		if err != nil {
			t.Fatalf("%s: %v", tc.p, err)
		}
		for i, want := range tc.want {
			if got := m(int32(i)); got != want {
				t.Errorf("%s row %d = %v, want %v", tc.p, i, got, want)
			}
		}
	}
}

func TestStrPredicateMatch(t *testing.T) {
	col := storage.NewStrCol([]string{"apple", "banana", "cherry"})
	cases := []struct {
		p    Pred
		want []bool
	}{
		{StrEq("c", "banana"), []bool{false, true, false}},
		{StrNe("c", "banana"), []bool{true, false, true}},
		{StrBetween("c", "apple", "banana"), []bool{true, true, false}},
		{StrIn("c", "apple", "cherry"), []bool{true, false, true}},
		{Pred{Col: "c", Op: Lt, Kind: KStr, SVal: "banana"}, []bool{true, false, false}},
		{Pred{Col: "c", Op: Le, Kind: KStr, SVal: "banana"}, []bool{true, true, false}},
		{Pred{Col: "c", Op: Gt, Kind: KStr, SVal: "banana"}, []bool{false, false, true}},
		{Pred{Col: "c", Op: Ge, Kind: KStr, SVal: "banana"}, []bool{false, true, true}},
	}
	for _, tc := range cases {
		m, err := tc.p.Matcher(col)
		if err != nil {
			t.Fatalf("%s: %v", tc.p, err)
		}
		for i, want := range tc.want {
			if got := m(int32(i)); got != want {
				t.Errorf("%s row %d = %v, want %v", tc.p, i, got, want)
			}
		}
	}
}

func TestFloatPredicateMatch(t *testing.T) {
	col := storage.NewFloat64Col([]float64{0.01, 0.05, 0.10})
	cases := []struct {
		p    Pred
		want []bool
	}{
		{FloatBetween("c", 0.04, 0.06), []bool{false, true, false}},
		{FloatLt("c", 0.05), []bool{true, false, false}},
		{FloatGe("c", 0.05), []bool{false, true, true}},
	}
	for _, tc := range cases {
		m, err := tc.p.Matcher(col)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range tc.want {
			if got := m(int32(i)); got != want {
				t.Errorf("%s row %d = %v, want %v", tc.p, i, got, want)
			}
		}
	}
	// Integer predicate against a float column compares as float.
	m, err := IntGe("c", 1).Matcher(storage.NewFloat64Col([]float64{0.5, 1.0, 1.5}))
	if err != nil {
		t.Fatal(err)
	}
	if m(0) || !m(1) || !m(2) {
		t.Error("KInt predicate on float column mismatch")
	}
}

func TestDictPredicatesUseMask(t *testing.T) {
	col := storage.NewDictColFrom([]string{"ASIA", "EUROPE", "ASIA", "AMERICA"})
	// Note: insertion order of the dictionary does NOT match lexicographic
	// order, so a range predicate must still work (mask evaluation).
	p := StrBetween("c", "AMERICA", "ASIA")
	m, err := p.Matcher(col)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, true}
	for i, w := range want {
		if got := m(int32(i)); got != w {
			t.Errorf("row %d = %v, want %v", i, got, w)
		}
	}
	mask, err := StrEq("c", "EUROPE").DictMask(col.Dict)
	if err != nil {
		t.Fatal(err)
	}
	if !mask[1] || mask[0] || mask[2] {
		t.Errorf("DictMask = %v", mask)
	}
	if _, err := IntEq("c", 1).DictMask(col.Dict); err == nil {
		t.Error("int DictMask accepted")
	}
}

func TestMatcherTypeErrors(t *testing.T) {
	intCol := storage.NewInt64Col([]int64{1})
	strCol := storage.NewStrCol([]string{"x"})
	i32 := storage.NewInt32Col([]int32{1})
	dict := storage.NewDictColFrom([]string{"x"})
	if _, err := StrEq("c", "x").Matcher(intCol); err == nil {
		t.Error("string pred on int64 column accepted")
	}
	if _, err := StrEq("c", "x").Matcher(i32); err == nil {
		t.Error("string pred on int32 column accepted")
	}
	if _, err := IntEq("c", 1).Matcher(strCol); err == nil {
		t.Error("int pred on string column accepted")
	}
	if _, err := IntEq("c", 1).Matcher(dict); err == nil {
		t.Error("int pred on dict column accepted")
	}
}

func TestBitmapMatchesMatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 500
	i32 := make([]int32, n)
	i64 := make([]int64, n)
	strs := make([]string, n)
	pool := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < n; i++ {
		i32[i] = int32(rng.Intn(50))
		i64[i] = int64(rng.Intn(50))
		strs[i] = pool[rng.Intn(len(pool))]
	}
	cols := []storage.Column{
		storage.NewInt32Col(i32),
		storage.NewInt64Col(i64),
		storage.NewStrCol(strs),
		storage.NewDictColFrom(strs),
	}
	preds := []Pred{
		IntEq("c", 25), IntBetween("c", 10, 30), IntLt("c", 5), IntIn("c", 1, 2, 3),
		// Literals an int32 does not hold must not be truncated to one.
		IntEq("c", 1<<32+25), IntBetween("c", math.MinInt64, math.MaxInt64), IntBetween("c", 10, 1<<32),
		StrEq("c", "c"), StrBetween("c", "b", "d"), StrIn("c", "a", "e"), StrNe("c", "a"),
	}
	for _, col := range cols {
		for _, p := range preds {
			m, err := p.Matcher(col)
			if err != nil {
				continue // type mismatch pairs are skipped
			}
			bm := storage.NewBitmap(n)
			if err := p.Bitmap(col, bm); err != nil {
				t.Fatalf("%s on %s: %v", p, col.Type(), err)
			}
			for i := 0; i < n; i++ {
				if bm.Get(i) != m(int32(i)) {
					t.Fatalf("%s on %s: bit %d disagrees with matcher", p, col.Type(), i)
				}
			}
		}
	}
}

func TestBitmapLengthError(t *testing.T) {
	col := storage.NewInt64Col([]int64{1, 2, 3})
	if err := IntEq("c", 1).Bitmap(col, storage.NewBitmap(2)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	p := StrEq("c", "x")
	if err := p.Bitmap(col, storage.NewBitmap(3)); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

// Property: a compiled Filterer equals brute-force filtering with the Matcher for
// random data, predicates, and input selection vectors, over plain, FoR and
// RLE chunks; both when it writes over its input and when it writes to a
// separate dst, where the input comes back unchanged.
func TestFilterSelQuick(t *testing.T) {
	pool := []string{"aa", "bb", "cc", "dd"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		i32 := make([]int32, n)
		strs := make([]string, n)
		for i := range i32 {
			i32[i] = int32(rng.Intn(20))
			strs[i] = pool[rng.Intn(len(pool))]
		}
		cols := []storage.Column{
			storage.NewInt32Col(i32),
			storage.NewInt64Col(func() []int64 {
				v := make([]int64, n)
				for i := range v {
					v[i] = int64(i32[i])
				}
				return v
			}()),
			storage.NewDictColFrom(strs),
			storage.NewStrCol(strs),
			forCol(i32),
			rleCol(i32),
		}
		preds := []Pred{
			IntEq("c", int64(rng.Intn(20))),
			IntBetween("c", int64(rng.Intn(10)), int64(10+rng.Intn(10))),
			IntLt("c", int64(rng.Intn(20))),
			IntGe("c", int64(rng.Intn(20))),
			IntLe("c", int64(rng.Intn(20))),
			IntGt("c", int64(rng.Intn(20))),
			IntNe("c", int64(rng.Intn(20))),
			IntIn("c", int64(rng.Intn(20)), int64(rng.Intn(20))),
			IntEq("c", 1<<32+int64(rng.Intn(20))),
			IntLt("c", math.MaxInt64-int64(rng.Intn(2))),
			IntBetween("c", math.MinInt64, 1<<32),
			StrEq("c", pool[rng.Intn(4)]),
			StrBetween("c", "bb", "cc"),
		}
		// Random ascending input selection vector.
		var baseSel []int32
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				baseSel = append(baseSel, int32(i))
			}
		}
		for _, col := range cols {
			for _, p := range preds {
				m, err := p.Matcher(col)
				if err != nil {
					continue
				}
				var want []int32
				for _, r := range baseSel {
					if m(r) {
						want = append(want, r)
					}
				}
				filter, err := p.Filterer(col)
				if err != nil {
					return false
				}
				in := append([]int32(nil), baseSel...)
				if !slices.Equal(filter(in, in), want) {
					return false
				}
				src, dst := slices.Clone(baseSel), make([]int32, len(baseSel))
				if !slices.Equal(filter(dst, src), want) || !slices.Equal(src, baseSel) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// forCol is v as a FoR chunk: Base the minimum, each delta in as many bits
// as the widest needs.
func forCol(v []int32) storage.Column {
	lo := slices.Min(v)
	width := bits.Len32(uint32(slices.Max(v) - lo))
	c := &storage.FoRCol{Typ: storage.TInt32, Base: int64(lo), Width: uint8(width), N: len(v)}
	c.Words = make([]uint64, (len(v)*width+63)/64+1)
	for i, x := range v {
		d, off := uint64(x-lo), i*width
		c.Words[off/64] |= d << (off % 64)
		if off%64+width > 64 {
			c.Words[off/64+1] |= d >> (64 - off%64)
		}
	}
	return c
}

// rleCol is v as an RLE chunk: one run per stretch of equal values.
func rleCol(v []int32) storage.Column {
	c := &storage.RLECol{}
	var runs []int32
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			runs = append(runs, x)
			c.End = append(c.End, 0)
		}
		c.End[len(c.End)-1] = int32(i + 1)
	}
	c.Vals = storage.NewInt32Col(runs)
	return c
}

func TestPredStringAndEstimatedSel(t *testing.T) {
	for _, p := range []Pred{
		IntEq("a", 1), IntBetween("a", 1, 2), IntIn("a", 1, 2),
		StrEq("s", "x"), StrBetween("s", "a", "b"), StrIn("s", "x"),
		FloatBetween("f", 0.1, 0.2), FloatLt("f", 1),
	} {
		if p.String() == "" || !strings.Contains(p.String(), p.Col) {
			t.Errorf("String() for %v = %q", p.Op, p.String())
		}
	}
	if IntEq("a", 1).EstimatedSel() != 0.5 {
		t.Error("default selectivity != 0.5")
	}
	if IntEq("a", 1).WithSel(0.1).EstimatedSel() != 0.1 {
		t.Error("WithSel not honored")
	}
}
