package storage_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
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
			kept := filt(make([]int32, len(sel)), sel)
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

// chunkModeInt64 and chunkModeRuns are the bits of FuzzChunkReader's mode
// argument: int64 rather than int32 values, and each value repeated over
// chunkRunLength rows, runs long enough that EncodeChunk picks RLE.
const (
	chunkModeInt64 = 1
	chunkModeRuns  = 2
	chunkRunLength = 64
)

// forPacked builds the FoR form of v field by field, independently of
// EncodeChunk: Base the minimum, Width the bits of the widest delta.
func forPacked(typ storage.Type, v []int64) *storage.FoRCol {
	lo, hi := slices.Min(v), slices.Max(v)
	width := bits.Len64(uint64(hi) - uint64(lo))
	c := &storage.FoRCol{Typ: typ, Base: lo, Width: uint8(width), N: len(v)}
	if width == 0 {
		return c
	}
	c.Words = make([]uint64, (len(v)*width+63)/64)
	for i, x := range v {
		d, word, off := uint64(x)-uint64(lo), i*width/64, i*width%64
		c.Words[word] |= d << off
		if off+width > 64 {
			c.Words[word+1] |= d >> (64 - off)
		}
	}
	return c
}

// FuzzChunkReader: the in-place reads the scan kernels make at an ascending
// selection vector return the plain value at every selected row, for the
// RLE and FoR forms of the same int32 or int64 values and for the form
// EncodeChunk picks: RunIndex (the shared run cursor) and FindRun over an
// RLE chunk's runs, and Gather over a FoR chunk. The in-place filters keep
// exactly the rows a plain test keeps, written over their input or to a
// separate dst that leaves the input unchanged: KeepRuns over an RLE
// chunk's runs, and FilterDelta over a FoR chunk's deltas. pick selects row
// i when bit i%8 of pick[i/8 % len(pick)] is set (every row when pick is
// empty).
func FuzzChunkReader(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, mode := range []uint8{0, chunkModeInt64, chunkModeRuns, chunkModeRuns | chunkModeInt64} {
		raw := make([]byte, 256)
		rng.Read(raw)
		f.Add(raw, mode, []byte{0x5a, 0x01, 0xff})
		f.Add(raw[:8], mode, []byte{})
	}
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint8(chunkModeRuns), []byte{0x80})
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0x7f}, 16), uint8(chunkModeInt64), []byte{0x0f})

	f.Fuzz(func(t *testing.T, raw []byte, mode uint8, pick []byte) {
		// At most 4 KiB of values, at most 64 rows each: rows stay bounded
		// by the input's size.
		raw, pick = raw[:min(len(raw), 4<<10)], pick[:min(len(pick), 4<<10)]
		typ, size := storage.TInt32, 4
		if mode&chunkModeInt64 != 0 {
			typ, size = storage.TInt64, 8
		}
		rep := 1
		if mode&chunkModeRuns != 0 {
			rep = chunkRunLength
		}
		var want []int64
		for i := 0; i+size <= len(raw); i += size {
			v := int64(binary.LittleEndian.Uint64(append(raw[i:i+size:i+size], make([]byte, 8-size)...)))
			if size == 4 {
				v = int64(int32(v))
			}
			for range rep {
				want = append(want, v)
			}
		}
		if len(want) == 0 {
			return
		}
		var sel []int32
		for i := range want {
			if len(pick) == 0 || pick[i/8%len(pick)]&(1<<(i%8)) != 0 {
				sel = append(sel, int32(i))
			}
		}

		rle := &storage.RLECol{}
		var runs []int64
		for i, v := range want {
			if i == 0 || v != want[i-1] {
				runs = append(runs, v)
				rle.End = append(rle.End, 0)
			}
			rle.End[len(rle.End)-1] = int32(i + 1)
		}
		rle.Vals = storage.NewInt64Col(runs)
		if typ == storage.TInt32 {
			v32 := make([]int32, len(runs))
			for i, v := range runs {
				v32[i] = int32(v)
			}
			rle.Vals = storage.NewInt32Col(v32)
		}
		chunks := []storage.Column{rle, forPacked(typ, want)}
		var plain storage.Column = storage.NewInt64Col(want)
		if typ == storage.TInt32 {
			plain = storage.DecodeChunk(rle)
		}
		enc, ok := storage.EncodeChunk(plain, len(want))
		if ok {
			chunks = append(chunks, enc)
		}
		if mode&chunkModeRuns != 0 && len(runs) > 1 && !ok {
			t.Fatalf("%d runs of %d rows: EncodeChunk kept the chunk plain", len(runs), chunkRunLength)
		}
		// keeps checks a filter against the plain test pass over sel, both
		// over its input and into a separate dst.
		keeps := func(name string, filt func(dst, sel []int32) []int32, pass func(r int32) bool) {
			var want []int32
			for _, r := range sel {
				if pass(r) {
					want = append(want, r)
				}
			}
			in := slices.Clone(sel)
			if got := filt(in, in); !slices.Equal(got, want) {
				t.Fatalf("%s over its input: kept %v, want %v", name, got, want)
			}
			in = slices.Clone(sel)
			if got := filt(make([]int32, len(sel)), in); !slices.Equal(got, want) || !slices.Equal(in, sel) {
				t.Fatalf("%s into dst: kept %v, want %v; input %v, was %v", name, got, want, in, sel)
			}
		}
		for _, c := range chunks {
			switch c := c.(type) {
			case *storage.RLECol:
				idx := storage.RunIndex(make([]int32, len(pick)%4), c.End, sel)
				if len(idx) != len(sel) {
					t.Fatalf("RunIndex returned %d runs for %d rows", len(idx), len(sel))
				}
				for j, r := range sel {
					if got, _ := storage.Int64At(c.Vals, int(idx[j])); got != want[r] {
						t.Fatalf("RLE run cursor: row %d in run %d = %d, plain %d", r, idx[j], got, want[r])
					}
					if ri := storage.FindRun(c.End, int(r)); ri != int(idx[j]) {
						t.Fatalf("row %d: FindRun %d, run cursor %d", r, ri, idx[j])
					}
				}
				pass := make([]bool, len(c.End)) // keep the runs of even values
				for ri := range pass {
					v, _ := storage.Int64At(c.Vals, ri)
					pass[ri] = v%2 == 0
				}
				keeps("KeepRuns", func(dst, sel []int32) []int32 { return storage.KeepRuns(dst, sel, c.End, pass) },
					func(r int32) bool { return want[r]%2 == 0 })
			case *storage.FoRCol:
				got := c.Gather(make([]int64, len(raw)%4), sel)
				if len(got) != len(sel) {
					t.Fatalf("Gather returned %d values for %d rows", len(got), len(sel))
				}
				for j, r := range sel {
					if got[j] != want[r] {
						t.Fatalf("FoR Gather (base %d, width %d): row %d = %d, plain %d", c.Base, c.Width, r, got[j], want[r])
					}
				}
				// The deltas of the middle half of the frame, a delta being
				// value − Base taken modulo 2^64.
				var top uint64
				if c.Width > 0 {
					top = uint64(1)<<c.Width - 1
				}
				lo, hi := top/4, top-top/4
				keeps("FilterDelta", func(dst, sel []int32) []int32 { return c.FilterDelta(dst, sel, lo, hi) },
					func(r int32) bool { d := uint64(want[r]) - uint64(c.Base); return d >= lo && d <= hi })
			default:
				t.Fatalf("EncodeChunk returned a %T", c)
			}
		}
	})
}
