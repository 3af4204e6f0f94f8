package storage

import "math/bits"

// Bitmap is a fixed-length packed bit vector.
//
// A-Store uses bitmaps in two roles: predicate vectors, where bit i records
// whether tuple i of a dimension table satisfies the query's selection
// predicates, and deletion vectors, where bit i records that tuple i has been
// lazily deleted. A predicate vector over a dimension table is small (one bit
// per dimension row), so it typically fits in cache and turns repeated
// dimension predicate evaluation into a single bit probe.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns a bitmap of n bits, all zero.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i to 1.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear sets bit i to 0.
func (b *Bitmap) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Words returns the packed bits, bit i at words[i>>6]>>(i&63)&1, for loops
// that take a verdict as a 0/1 number instead of a branch. The caller must
// not modify them.
func (b *Bitmap) Words() []uint64 { return b.words }

// Bit returns 1 if v holds and 0 if not. It compiles to a flag-setting
// compare, with no branch, so a selection-vector compaction can store every
// row and advance by the verdict: out[n] = r; n += Bit(pass).
func Bit(v bool) int {
	if v {
		return 1
	}
	return 0
}

// SetAll sets every bit to 1.
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// Reset sets every bit to 0.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// trim clears the unused bits of the last word so Count stays exact.
func (b *Bitmap) trim() {
	if rem := uint(b.n) & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// And replaces b with b AND o. The bitmaps must have equal length.
func (b *Bitmap) And(o *Bitmap) {
	if b.n != o.n {
		panic("storage: Bitmap.And length mismatch")
	}
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Or replaces b with b OR o. The bitmaps must have equal length.
func (b *Bitmap) Or(o *Bitmap) {
	if b.n != o.n {
		panic("storage: Bitmap.Or length mismatch")
	}
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}

// AndNot replaces b with b AND NOT o. The bitmaps must have equal length.
func (b *Bitmap) AndNot(o *Bitmap) {
	if b.n != o.n {
		panic("storage: Bitmap.AndNot length mismatch")
	}
	for i := range b.words {
		b.words[i] &^= o.words[i]
	}
}

// Clone returns a copy of b.
func (b *Bitmap) Clone() *Bitmap {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitmap{words: w, n: b.n}
}

// Grow extends the bitmap to n bits (new bits are zero). Shrinking is not
// supported; if n <= Len the call is a no-op.
func (b *Bitmap) Grow(n int) {
	if n <= b.n {
		return
	}
	need := (n + 63) / 64
	if need > len(b.words) {
		w := make([]uint64, need)
		copy(w, b.words)
		b.words = w
	}
	b.n = n
}

// NextSet returns the index of the first set bit at or after from,
// or -1 if there is none.
func (b *Bitmap) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= b.n {
		return -1
	}
	wi := from >> 6
	w := b.words[wi] >> (uint(from) & 63)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// AnySetInRange reports whether any bit in [lo, hi] (inclusive, clamped to
// the bitmap length) is set. Zone-map pruning uses it to test whether a
// segment's foreign-key range can reach any row selected by a predicate
// vector.
func (b *Bitmap) AnySetInRange(lo, hi int) bool {
	if hi >= b.n {
		hi = b.n - 1
	}
	i := b.NextSet(lo)
	return i >= 0 && i <= hi
}

// ForEachSet calls fn for every set bit in ascending order.
func (b *Bitmap) ForEachSet(fn func(i int)) {
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// AppendSet appends the indexes of all set bits to dst and returns it.
func (b *Bitmap) AppendSet(dst []int32) []int32 {
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			dst = append(dst, int32(base+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}
