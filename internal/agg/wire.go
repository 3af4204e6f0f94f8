package agg

import (
	"encoding/binary"
	"fmt"
	"math"

	"astore/internal/expr"
)

// Wire encoding of a Partial, used to ship per-shard aggregation state from
// workers to the scatter-gather coordinator. The format is versioned and
// fully validated on decode: a coordinator never merges a snapshot whose
// shape, aggregate kinds, or counts it could not verify, so a corrupted or
// mismatched worker response fails closed instead of producing wrong rows.
//
// Layout (all integers little-endian):
//
//	u32  magic "ASPW"
//	u8   version (wireVersion)
//	u8   form: 0 = array (flat cell indexes), 1 = hash (encoded group keys)
//	u8   nkinds, then nkinds × u8 aggregate kind codes
//	u32  cells
//	array form: cells × i32 flat cell indexes
//	hash form:  cells × (u32 key length + key bytes)
//	cells × i64 per-cell row counts (positive)
//	cells × nkinds × f64 raw accumulators (row-major)
const (
	wireMagic   = 0x41535057 // "ASPW"
	wireVersion = 1

	wireFormArray = 0
	wireFormHash  = 1

	// maxWireCells bounds decode-side allocation before the per-cell data
	// is length-checked; far above any real aggregation state.
	maxWireCells = 1 << 27
)

// wireKindValid reports whether a decoded aggregate kind code is one the
// merge semantics understand.
func wireKindValid(k uint8) bool { return expr.AggKind(k) <= expr.Avg }

// MarshalBinary encodes the snapshot in the stable wire format.
func (p *Partial) MarshalBinary() ([]byte, error) {
	kinds := p.acc.kinds
	if len(kinds) > 255 {
		return nil, fmt.Errorf("agg: partial wire: %d aggregate kinds exceed the u8 header", len(kinds))
	}
	n := len(p.acc.counts)
	buf := make([]byte, 0, 11+len(kinds)+n*(12+8*len(kinds)))
	buf = binary.LittleEndian.AppendUint32(buf, wireMagic)
	buf = append(buf, wireVersion)
	if p.keys != nil {
		buf = append(buf, wireFormHash)
	} else {
		buf = append(buf, wireFormArray)
	}
	buf = append(buf, uint8(len(kinds)))
	for _, k := range kinds {
		buf = append(buf, uint8(k))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	if p.keys != nil {
		for _, key := range p.keys {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
			buf = append(buf, key...)
		}
	} else {
		for _, f := range p.flats {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(f))
		}
	}
	for _, c := range p.acc.counts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	}
	for i := range n {
		for _, col := range p.acc.vals {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(col[i]))
		}
	}
	return buf, nil
}

// UnmarshalPartial decodes and validates one wire-format snapshot. Every
// length, kind code, and count is checked; the returned Partial is safe to
// hand to MergeIntoArray/MergeIntoHash, which re-validate shape against the
// receiving aggregation state.
func UnmarshalPartial(data []byte) (*Partial, error) {
	r := wireReader{buf: data}
	if magic, err := r.u32(); err != nil {
		return nil, err
	} else if magic != wireMagic {
		return nil, fmt.Errorf("agg: partial wire: bad magic %#08x", magic)
	}
	ver, err := r.u8()
	if err != nil {
		return nil, err
	}
	if ver != wireVersion {
		return nil, fmt.Errorf("agg: partial wire: unsupported version %d (want %d)", ver, wireVersion)
	}
	form, err := r.u8()
	if err != nil {
		return nil, err
	}
	if form != wireFormArray && form != wireFormHash {
		return nil, fmt.Errorf("agg: partial wire: unknown form %d", form)
	}
	nk, err := r.u8()
	if err != nil {
		return nil, err
	}
	kinds := make([]expr.AggKind, nk)
	for i := range kinds {
		code, err := r.u8()
		if err != nil {
			return nil, err
		}
		if !wireKindValid(code) {
			return nil, fmt.Errorf("agg: partial wire: unknown aggregate kind code %d", code)
		}
		kinds[i] = expr.AggKind(code)
	}
	n64, err := r.u32()
	if err != nil {
		return nil, err
	}
	n := int(n64)
	if n > maxWireCells {
		return nil, fmt.Errorf("agg: partial wire: %d cells exceed the decode bound", n)
	}
	// The fixed-width tail alone needs cells×(8 + 8·nk) bytes; reject
	// impossible cell counts before any allocation.
	if need := n * (8 + 8*int(nk)); need > len(r.buf)-r.off {
		if form == wireFormArray || need > len(r.buf) {
			return nil, fmt.Errorf("agg: partial wire: truncated (%d cells in %d bytes)", n, len(data))
		}
	}

	// An empty snapshot gets no accumulator columns: their headers would
	// outgrow the one byte per aggregate kind it takes on the wire.
	p := &Partial{acc: cells{kinds: kinds}}
	if n > 0 {
		p.acc = newCells(kinds, n)
	}
	if form == wireFormHash {
		p.keys = make([]string, n)
		for i := range p.keys {
			klen, err := r.u32()
			if err != nil {
				return nil, err
			}
			key, err := r.bytes(int(klen))
			if err != nil {
				return nil, err
			}
			p.keys[i] = string(key)
		}
	} else {
		p.flats = make([]int32, n)
		for i := range p.flats {
			v, err := r.u32()
			if err != nil {
				return nil, err
			}
			f := int32(v)
			if f < 0 {
				return nil, fmt.Errorf("agg: partial wire: negative cell index %d", f)
			}
			p.flats[i] = f
		}
	}
	for i := range p.acc.counts {
		v, err := r.u64()
		if err != nil {
			return nil, err
		}
		c := int64(v)
		if c <= 0 {
			return nil, fmt.Errorf("agg: partial wire: cell %d holds %d rows, not at least one", i, c)
		}
		p.acc.counts[i] = c
	}
	for i := range n {
		for _, col := range p.acc.vals {
			v, err := r.u64()
			if err != nil {
				return nil, err
			}
			col[i] = math.Float64frombits(v)
		}
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("agg: partial wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return p, nil
}

// wireReader is a bounds-checked little-endian cursor.
type wireReader struct {
	buf []byte
	off int
}

func (r *wireReader) bytes(n int) ([]byte, error) {
	if n < 0 || n > len(r.buf)-r.off {
		return nil, fmt.Errorf("agg: partial wire: truncated (need %d bytes at offset %d of %d)", n, r.off, len(r.buf))
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *wireReader) u8() (uint8, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *wireReader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *wireReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}
