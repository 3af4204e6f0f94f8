// Package join implements the FK-PK join kernels compared in the paper's
// micro-benchmarks (§6.1, Table 2 and Fig. 8):
//
//   - NPO: the no-partitioning shared hash join of Blanas et al. — build one
//     chained hash table over the dimension keys, probe it with the fact
//     foreign keys. Fast while the table fits in cache, degrades with
//     dimension size.
//   - PRO: the parallel radix-partitioning hash join of Balkesen et al. —
//     partition both inputs by key radix into cache-sized fragments, then
//     build and probe per fragment. Pays a constant partitioning cost but is
//     insensitive to dimension size.
//   - SortMerge: sort both inputs by key and merge (the m-way sort-merge
//     baseline).
//   - AIR: A-Store's array index reference join — the foreign key column
//     already stores dimension array indexes, so the "join" is a positional
//     payload lookup per fact tuple. No build phase exists at all.
//
// All kernels compute the same answer — the number of matching fact tuples
// and the sum of the matched dimension payloads — so their equivalence is
// directly testable and their per-tuple cost directly comparable. Payload
// summation forces a real dimension-tuple access, preventing a count-only
// join from being optimized into len(fk).
package join

import "sync"

// NestedLoop is the brute-force reference implementation used to validate
// the other kernels on small inputs.
func NestedLoop(dimKeys []int32, payload []int64, fk []int32) (count, sum int64) {
	for _, k := range fk {
		for i, dk := range dimKeys {
			if dk == k {
				count++
				sum += payload[i]
				break
			}
		}
	}
	return count, sum
}

// hashKey is Knuth's multiplicative hash over 32-bit keys.
func hashKey(k int32) uint32 { return uint32(k) * 2654435761 }

// nextPow2 returns the smallest power of two >= n (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// HashTable is a bucket-chained hash table over int32 keys mapping each key
// to its build position. It is the shared table of the NPO join and the
// dimension table of the baseline (value-join) engines.
type HashTable struct {
	mask    uint32
	buckets []int32 // head of chain per bucket, -1 if empty
	next    []int32 // next build tuple in chain, -1 at end
	keys    []int32 // build keys by build position
}

// NewHashTable builds a chained hash table over dimKeys; Lookup(k) returns
// the build position of k.
func NewHashTable(dimKeys []int32) *HashTable {
	nb := nextPow2(len(dimKeys) * 2)
	t := &HashTable{
		mask:    uint32(nb - 1),
		buckets: make([]int32, nb),
		next:    make([]int32, len(dimKeys)),
		keys:    dimKeys,
	}
	for i := range t.buckets {
		t.buckets[i] = -1
	}
	for i, k := range dimKeys {
		b := hashKey(k) & t.mask
		t.next[i] = t.buckets[b]
		t.buckets[b] = int32(i)
	}
	return t
}

// Lookup returns the build position of key k, or -1 if absent.
func (t *HashTable) Lookup(k int32) int32 {
	for i := t.buckets[hashKey(k)&t.mask]; i >= 0; i = t.next[i] {
		if t.keys[i] == k {
			return i
		}
	}
	return -1
}

// NPO performs a no-partitioning hash join: one shared hash table over the
// dimension, probed by the fact foreign keys with `workers` goroutines.
func NPO(dimKeys []int32, payload []int64, fk []int32, workers int) (count, sum int64) {
	t := NewHashTable(dimKeys)
	probe := func(part []int32) (int64, int64) {
		var c, s int64
		for _, k := range part {
			if i := t.Lookup(k); i >= 0 {
				c++
				s += payload[i]
			}
		}
		return c, s
	}
	return parallelReduce(fk, workers, probe)
}

// parallelReduce splits fk into `workers` chunks, applies f to each, and
// sums the partial results.
func parallelReduce(fk []int32, workers int, f func([]int32) (int64, int64)) (count, sum int64) {
	if workers <= 1 || len(fk) < 1<<12 {
		return f(fk)
	}
	type partial struct{ c, s int64 }
	parts := make([]partial, workers)
	var wg sync.WaitGroup
	chunk := (len(fk) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(fk) {
			break
		}
		hi := lo + chunk
		if hi > len(fk) {
			hi = len(fk)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			c, s := f(fk[lo:hi])
			parts[w] = partial{c, s}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, p := range parts {
		count += p.c
		sum += p.s
	}
	return count, sum
}

// AIR performs A-Store's array index reference join: fkPos holds dimension
// array indexes, so each fact tuple costs exactly one positional payload
// access. There is no build phase.
func AIR(payload []int64, fkPos []int32, workers int) (count, sum int64) {
	probe := func(part []int32) (int64, int64) {
		var s int64
		for _, p := range part {
			s += payload[p]
		}
		return int64(len(part)), s
	}
	return parallelReduce(fkPos, workers, probe)
}
