package storage_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"astore/internal/expr"
	"astore/internal/storage"
)

// forModeInt64 and forModeDirect are the bits of FuzzFoRReader's mode
// argument: int64 rather than int32 values, and a FoRCol built directly from
// (raw words, base, width) rather than by EncodeChunk from raw values.
const (
	forModeInt64  = 1
	forModeDirect = 2
)

// fuzzFoRChunk builds the chunk a FuzzFoRReader input describes, or nil
// when EncodeChunk keeps its values plain or run-length.
func fuzzFoRChunk(raw []byte, base int64, width, mode uint8) *storage.FoRCol {
	typ, size := storage.TInt32, 4
	if mode&forModeInt64 != 0 {
		typ, size = storage.TInt64, 8
	}
	if mode&forModeDirect != 0 {
		width %= 65
		words := make([]uint64, len(raw)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		n := len(raw) // width 0 stores nothing: any row count
		if width > 0 {
			n = 64 * len(words) / int(width) // the last field may end on a word boundary
		}
		return &storage.FoRCol{Typ: typ, Base: base, Width: width, N: n, Words: words}
	}
	n := len(raw) / size
	var plain storage.Column
	if typ == storage.TInt32 {
		v := make([]int32, n)
		for i := range v {
			v[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		plain = storage.NewInt32Col(v)
	} else {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		plain = storage.NewInt64Col(v)
	}
	c, _ := storage.EncodeChunk(plain, n)
	f, _ := c.(*storage.FoRCol)
	return f
}

// FuzzFoRReader: every in-place read of a FoR chunk — Gather, At, and the
// delta-domain filter expr compiles for it — equals DecodeChunk, for chunks
// EncodeChunk builds from arbitrary values and for chunks built field by
// field at any width and Base, including ones whose frame leaves their type.
func FuzzFoRReader(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []uint8{0, 1, 31, 32, 33, 63, 64} {
		// width words hold 64 fields, the last ending on a word boundary;
		// at 31, 33 and 63 bits fields straddle words.
		raw := make([]byte, 8*max(int(width), 1))
		rng.Read(raw)
		for _, mode := range []uint8{forModeDirect, forModeDirect | forModeInt64} {
			f.Add(raw, int64(-1)<<uint(width%62)-7, width, mode, int64(width))
		}
	}
	f.Add(make([]byte, 8*33), int64(math.MinInt64), uint8(33), uint8(forModeDirect|forModeInt64), int64(3))
	values := func(size int, vs ...int64) []byte {
		raw := make([]byte, size*len(vs))
		for i, v := range vs {
			if size == 4 {
				binary.LittleEndian.PutUint32(raw[4*i:], uint32(v))
			} else {
				binary.LittleEndian.PutUint64(raw[8*i:], uint64(v))
			}
		}
		return raw
	}
	spread := func(lo int64, span, n int) []int64 {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = lo + int64(rng.Intn(span))
		}
		return vs
	}
	f.Add(values(4, spread(-3000, 5000, 300)...), int64(0), uint8(0), uint8(0), int64(1))
	f.Add(values(4, spread(math.MinInt32, 1<<20, 300)...), int64(0), uint8(0), uint8(0), int64(2))
	f.Add(values(4, spread(math.MaxInt32-100, 101, 300)...), int64(0), uint8(0), uint8(0), int64(3))
	f.Add(values(8, spread(-1<<40, 1<<30, 300)...), int64(0), uint8(0), uint8(forModeInt64), int64(4))
	f.Add(values(8, spread(math.MinInt64, 1000, 300)...), int64(0), uint8(0), uint8(forModeInt64), int64(5))
	f.Add(values(8, spread(math.MaxInt64-999, 1000, 300)...), int64(0), uint8(0), uint8(forModeInt64), int64(6))

	f.Fuzz(func(t *testing.T, raw []byte, base int64, width, mode uint8, seed int64) {
		if len(raw) > 1<<16 {
			raw = raw[:1<<16]
		}
		c := fuzzFoRChunk(raw, base, width, mode)
		if c == nil {
			return
		}
		var want []int64
		switch d := storage.DecodeChunk(c).(type) {
		case *storage.Int32Col:
			for _, v := range d.V {
				want = append(want, int64(v))
			}
		case *storage.Int64Col:
			want = d.V
		}
		if len(want) != c.N {
			t.Fatalf("decoded %d rows of %d", len(want), c.N)
		}
		lo, hi, framed := c.Frame()
		for i, v := range want {
			if got := c.At(i); got != v {
				t.Fatalf("At(%d) = %d, decoded %d", i, got, v)
			}
			if framed && (v < lo || v > hi) {
				t.Fatalf("row %d = %d outside the frame [%d, %d]", i, v, lo, hi)
			}
		}

		rng := rand.New(rand.NewSource(seed))
		keep := rng.Float64()
		var sel []int32
		for i := range want {
			if rng.Float64() < keep {
				sel = append(sel, int32(i))
			}
		}
		dst := make([]int64, rng.Intn(8), rng.Intn(2*len(sel)+8)+8)
		got := c.Gather(dst, sel)
		if len(got) != len(sel) {
			t.Fatalf("Gather returned %d values for %d rows", len(got), len(sel))
		}
		for j, r := range sel {
			if got[j] != want[r] {
				t.Fatalf("Gather: row %d = %d, decoded %d", r, got[j], want[r])
			}
		}

		lits := []int64{math.MinInt64, math.MaxInt64, c.Base - 1, c.Base, c.Base + 1,
			int64(uint64(c.Base) + (uint64(1)<<c.Width - 1)), rng.Int63() - rng.Int63()}
		if len(want) > 0 {
			v := want[rng.Intn(len(want))]
			lits = append(lits, v-1, v, v+1)
		}
		var preds []expr.Pred
		for i, v := range lits {
			for _, op := range []expr.Op{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge} {
				preds = append(preds, expr.Pred{Col: "c", Op: op, Kind: expr.KInt, IVal: v})
			}
			preds = append(preds, expr.IntBetween("c", v, lits[(i+1)%len(lits)]),
				expr.FloatBetween("c", float64(v), float64(lits[(i+1)%len(lits)])))
		}
		preds = append(preds, expr.IntIn("c", lits...))
		plain := storage.DecodeChunk(c)
		for _, p := range preds {
			m, err := p.Matcher(plain)
			if err != nil {
				t.Fatal(err)
			}
			filt, err := p.Filterer(c)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			kept := filt(append([]int32(nil), sel...))
			n := 0
			for _, r := range sel {
				if !m(r) {
					continue
				}
				if n >= len(kept) || kept[n] != r {
					t.Fatalf("%s over %+v: kept %v, want row %d next", p, c, kept, r)
				}
				n++
			}
			if n != len(kept) {
				t.Fatalf("%s over %+v: kept %d rows, want %d", p, c, len(kept), n)
			}
		}
	})
}
