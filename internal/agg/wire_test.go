package agg

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"astore/internal/expr"
)

// roundTrip encodes and decodes a snapshot, failing the test on either leg.
func roundTrip(t *testing.T, p *Partial) *Partial {
	t.Helper()
	data, err := p.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := UnmarshalPartial(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return got
}

// samePartial compares two snapshots field by field; values print in the
// shortest form that reads back to the same float64.
func samePartial(t *testing.T, got, want *Partial, label string) {
	t.Helper()
	if (got.keys == nil) != (want.keys == nil) {
		t.Fatalf("%s: form changed across the wire (keys nil: %v vs %v)", label, got.keys == nil, want.keys == nil)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"kinds", got.acc.kinds, want.acc.kinds},
		{"flats", got.flats, want.flats},
		{"keys", got.keys, want.keys},
		{"counts", got.acc.counts, want.acc.counts},
		{"vals", got.acc.vals, want.acc.vals},
	} {
		if fmt.Sprint(f.got) != fmt.Sprint(f.want) {
			t.Fatalf("%s: %s = %v, want %v", label, f.name, f.got, f.want)
		}
	}
}

func TestWireRoundTripArray(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const cells = 64
	rows := genRows(rng, 500, cells)
	a := feedArray(t, rows, cells)
	p := a.Capture()
	samePartial(t, roundTrip(t, p), p, "array")

	// The decoded snapshot must merge like the original: feed both into
	// fresh arrays and compare the finalized groups.
	m1 := mustArray(t, cells, partialKinds)
	m2 := mustArray(t, cells, partialKinds)
	if err := p.MergeIntoArray(m1); err != nil {
		t.Fatal(err)
	}
	if err := roundTrip(t, p).MergeIntoArray(m2); err != nil {
		t.Fatal(err)
	}
	sameArrayResult(t, m2, m1, "decoded merge")
}

func TestWireRoundTripHash(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rows := genRows(rng, 500, 64)
	h := feedHash(rows)
	p := h.Capture()
	samePartial(t, roundTrip(t, p), p, "hash")

	m1 := NewHashAgg(partialKinds)
	m2 := NewHashAgg(partialKinds)
	if err := p.MergeIntoHash(m1); err != nil {
		t.Fatal(err)
	}
	if err := roundTrip(t, p).MergeIntoHash(m2); err != nil {
		t.Fatal(err)
	}
	sameHashResult(t, m2, m1, "decoded merge")
}

func TestWireRoundTripEmpty(t *testing.T) {
	arr := mustArray(t, 8, partialKinds)
	pa := arr.Capture()
	ga := roundTrip(t, pa)
	if ga.keys != nil || ga.Cells() != 0 {
		t.Fatalf("empty array snapshot decoded as %d cells (keys nil: %v)", ga.Cells(), ga.keys == nil)
	}
	ph := NewHashAgg(partialKinds).Capture()
	gh := roundTrip(t, ph)
	if gh.keys == nil || gh.Cells() != 0 {
		t.Fatalf("empty hash snapshot lost its form (keys nil: %v, cells %d)", gh.keys == nil, gh.Cells())
	}
	// Form survives the wire: an empty hash snapshot must still refuse to
	// merge into an aggregation array.
	if err := gh.MergeIntoHash(NewHashAgg(partialKinds)); err != nil {
		t.Fatalf("empty hash merge: %v", err)
	}
}

func TestWireRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := feedArray(t, genRows(rng, 100, 16), 16).Capture()
	good, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), good...))
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"bad magic", mutate(func(b []byte) []byte { b[0] ^= 0xff; return b }), "bad magic"},
		{"bad version", mutate(func(b []byte) []byte { b[4] = 99; return b }), "unsupported version"},
		{"bad form", mutate(func(b []byte) []byte { b[5] = 7; return b }), "unknown form"},
		{"bad kind", mutate(func(b []byte) []byte { b[7] = 200; return b }), "unknown aggregate kind"},
		{"truncated tail", good[:len(good)-3], "truncated"},
		{"trailing bytes", append(append([]byte(nil), good...), 0xaa), "trailing"},
		{"huge cell count", mutate(func(b []byte) []byte {
			off := 7 + len(partialKinds) // cells field follows the kind list
			for i := 0; i < 4; i++ {
				b[off+i] = 0xff
			}
			return b
		}), "exceed"},
	}
	for _, tc := range cases {
		if _, err := UnmarshalPartial(tc.data); err == nil {
			t.Errorf("%s: decode succeeded, want error containing %q", tc.name, tc.want)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestWireRejectsNegativeCount: a cell holds at least one row; a negative
// or zero count is refused at decode.
func TestWireRejectsNegativeCount(t *testing.T) {
	for _, count := range []int64{-5, 0} {
		p := &Partial{
			acc:   cells{kinds: []expr.AggKind{expr.Sum}, counts: []int64{count}, vals: [][]float64{{1}}},
			flats: []int32{0},
		}
		data, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalPartial(data); err == nil || !strings.Contains(err.Error(), "not at least one") {
			t.Fatalf("count %d decoded: err = %v", count, err)
		}
	}
}

func TestMergeRejectsKindMismatch(t *testing.T) {
	// Same arity, different aggregate at one position: the merge must fail
	// instead of silently folding Sum cells into a Min column.
	acc := cells{kinds: []expr.AggKind{expr.Sum, expr.Min}, counts: []int64{1}, vals: [][]float64{{1}, {2}}}
	p := &Partial{acc: acc, flats: []int32{0}}
	a, err := NewArrayAgg([]int{4}, []expr.AggKind{expr.Sum, expr.Max})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MergeIntoArray(a); err == nil || !strings.Contains(err.Error(), "mismatched aggregate kinds") {
		t.Fatalf("kind mismatch merged: err = %v", err)
	}
	h := NewHashAgg([]expr.AggKind{expr.Sum, expr.Max})
	ph := &Partial{acc: acc, keys: []string{"k"}}
	if err := ph.MergeIntoHash(h); err == nil || !strings.Contains(err.Error(), "mismatched aggregate kinds") {
		t.Fatalf("kind mismatch merged into hash: err = %v", err)
	}
}

func TestWireDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := feedHash(genRows(rng, 200, 32)).Capture()
	a, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("encoding is not deterministic")
	}
}
