package storage

import "testing"

func TestDictInternStable(t *testing.T) {
	d := NewDict()
	a := d.Intern("ASIA")
	b := d.Intern("EUROPE")
	if a == b {
		t.Fatal("distinct strings got equal codes")
	}
	if got := d.Intern("ASIA"); got != a {
		t.Fatalf("re-Intern gave %d, want %d", got, a)
	}
	if d.Value(a) != "ASIA" || d.Value(b) != "EUROPE" {
		t.Fatal("Value roundtrip failed")
	}
	if c, ok := d.Code("EUROPE"); !ok || c != b {
		t.Fatalf("Code(EUROPE) = %d,%v", c, ok)
	}
	if _, ok := d.Code("MARS"); ok {
		t.Fatal("Code of absent string reported ok")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

func TestDictColRoundtrip(t *testing.T) {
	vals := []string{"a", "b", "a", "c", "b", "a"}
	c := NewDictColFrom(vals)
	if c.Len() != len(vals) {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Dict.Len() != 3 {
		t.Fatalf("dict size = %d, want 3", c.Dict.Len())
	}
	for i, want := range vals {
		if got := c.Value(i); got != want {
			t.Errorf("Value(%d) = %q, want %q", i, got, want)
		}
		if got, ok := StringAt(c, i); !ok || got != want {
			t.Errorf("StringAt(%d) = %q,%v", i, got, ok)
		}
	}
}

func TestColumnTypesAndAccessors(t *testing.T) {
	cols := []struct {
		c    Column
		typ  Type
		name string
	}{
		{NewInt32Col([]int32{1, 2}), TInt32, "int32"},
		{NewInt64Col([]int64{1, 2}), TInt64, "int64"},
		{NewFloat64Col([]float64{1.5, 2.5}), TFloat64, "float64"},
		{NewStrCol([]string{"x", "y"}), TString, "string"},
		{NewDictColFrom([]string{"x", "y"}), TDict, "dict"},
	}
	for _, tc := range cols {
		if tc.c.Type() != tc.typ {
			t.Errorf("%s: Type = %v", tc.name, tc.c.Type())
		}
		if tc.c.Type().String() != tc.name {
			t.Errorf("Type.String = %q, want %q", tc.c.Type().String(), tc.name)
		}
		if tc.c.Len() != 2 {
			t.Errorf("%s: Len = %d, want 2", tc.name, tc.c.Len())
		}
	}

	if v, ok := Int64At(cols[0].c, 1); !ok || v != 2 {
		t.Errorf("Int64At int32 = %d,%v", v, ok)
	}
	if _, ok := Int64At(cols[3].c, 0); ok {
		t.Error("Int64At on StrCol reported ok")
	}
	if _, ok := StringAt(cols[0].c, 0); ok {
		t.Error("StringAt on Int32Col reported ok")
	}
	// Dict codes are exposed through Int64At for grouping machinery.
	if v, ok := Int64At(cols[4].c, 1); !ok || v != 1 {
		t.Errorf("Int64At dict code = %d,%v", v, ok)
	}
}

func TestColumnMoveTruncateClone(t *testing.T) {
	c := NewInt64Col([]int64{10, 20, 30, 40})
	cl := c.Clone().(*Int64Col)
	c.V[1] = 99
	if cl.Len() != 4 || cl.V[1] != 20 {
		t.Fatalf("Clone shared memory with original: %v", cl.V)
	}
}
