package join

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelsMatchNestedLoopSmall(t *testing.T) {
	in := MakeInput(37, 211, 1)
	wantC, wantS := NestedLoop(in.DimKeys, in.Payload, in.FK)
	if wantC != 211 {
		t.Fatalf("nested loop count = %d, want all 211 to match", wantC)
	}
	for _, k := range []struct {
		name string
		run  func() (int64, int64)
	}{
		{"NPO", func() (int64, int64) { return NPO(in.DimKeys, in.Payload, in.FK, 1) }},
		{"NPO-par", func() (int64, int64) { return NPO(in.DimKeys, in.Payload, in.FK, 4) }},
		{"PRO", func() (int64, int64) { return PRO(in.DimKeys, in.Payload, in.FK, 1) }},
		{"PRO-par", func() (int64, int64) { return PRO(in.DimKeys, in.Payload, in.FK, 4) }},
		{"SortMerge", func() (int64, int64) { return SortMerge(in.DimKeys, in.Payload, in.FK, 1) }},
		{"AIR", func() (int64, int64) { return AIR(in.Payload, in.FKPos, 1) }},
		{"AIR-par", func() (int64, int64) { return AIR(in.Payload, in.FKPos, 4) }},
	} {
		c, s := k.run()
		if c != wantC || s != wantS {
			t.Errorf("%s = (%d,%d), want (%d,%d)", k.name, c, s, wantC, wantS)
		}
	}
}

func TestValueKernelsHandleMisses(t *testing.T) {
	dim := []int32{10, 20, 30}
	pay := []int64{1, 2, 3}
	fk := []int32{10, 99, 30, -5, 20, 20}
	wantC, wantS := NestedLoop(dim, pay, fk)
	if wantC != 4 || wantS != 1+3+2+2 {
		t.Fatalf("nested loop = (%d,%d)", wantC, wantS)
	}
	if c, s := NPO(dim, pay, fk, 1); c != wantC || s != wantS {
		t.Errorf("NPO = (%d,%d)", c, s)
	}
	if c, s := PRO(dim, pay, fk, 1); c != wantC || s != wantS {
		t.Errorf("PRO = (%d,%d)", c, s)
	}
	if c, s := SortMerge(dim, pay, fk, 1); c != wantC || s != wantS {
		t.Errorf("SortMerge = (%d,%d)", c, s)
	}
}

func TestSortMergeNegativeKeys(t *testing.T) {
	dim := []int32{-100, 0, 100}
	pay := []int64{7, 8, 9}
	fk := []int32{-100, 100, -100, 0}
	wantC, wantS := NestedLoop(dim, pay, fk)
	if c, s := SortMerge(dim, pay, fk, 1); c != wantC || s != wantS {
		t.Errorf("SortMerge = (%d,%d), want (%d,%d)", c, s, wantC, wantS)
	}
}

func TestEmptyInputs(t *testing.T) {
	if c, s := NPO(nil, nil, nil, 1); c != 0 || s != 0 {
		t.Error("NPO on empty inputs nonzero")
	}
	if c, s := PRO([]int32{1}, []int64{5}, nil, 1); c != 0 || s != 0 {
		t.Error("PRO with empty probe nonzero")
	}
	if c, s := SortMerge(nil, nil, []int32{1}, 1); c != 0 || s != 0 {
		t.Error("SortMerge with empty build nonzero")
	}
	if c, s := AIR(nil, nil, 1); c != 0 || s != 0 {
		t.Error("AIR on empty inputs nonzero")
	}
}

func TestRadixSort64by32(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]uint64, 5000)
	for i := range a {
		a[i] = uint64(rng.Uint32())<<32 | uint64(rng.Uint32())
	}
	want := append([]uint64(nil), a...)
	sort.Slice(want, func(i, j int) bool { return want[i]>>32 < want[j]>>32 })
	radixSort64by32(a)
	for i := range a {
		if a[i]>>32 != want[i]>>32 {
			t.Fatalf("radix sort misordered at %d: %x vs %x", i, a[i]>>32, want[i]>>32)
		}
	}
	radixSort64by32(nil) // must not panic
	one := []uint64{42}
	radixSort64by32(one)
	if one[0] != 42 {
		t.Fatal("singleton mutated")
	}
}

func TestRadixBitsBounded(t *testing.T) {
	if b := radixBits(100); b != 0 {
		t.Errorf("radixBits(100) = %d, want 0", b)
	}
	if b := radixBits(1 << 30); b != 2*radixPassBits {
		t.Errorf("radixBits(2^30) = %d, want cap %d", b, 2*radixPassBits)
	}
	if b := radixBits(1 << 14); b < 1 {
		t.Errorf("radixBits(2^14) = %d, want >= 1", b)
	}
}

// TestPartitionLayout checks the two-pass partitioner: every key lands in
// the partition selected by the low hash bits, offsets tile the input, and
// build positions still address the original rows.
func TestPartitionLayout(t *testing.T) {
	for _, bits := range []int{0, 3, radixPassBits, radixPassBits + 3, 2 * radixPassBits} {
		in := MakeInput(1000, 5000, int64(bits))
		for _, side := range []struct {
			name    string
			keys    []int32
			withPos bool
		}{{"build", in.DimKeys, true}, {"probe", in.FK, false}} {
			pt := partition(side.keys, side.withPos, bits)
			nPart := 1 << bits
			if len(pt.off) != nPart+1 || pt.off[0] != 0 || pt.off[nPart] != int64(len(side.keys)) {
				t.Fatalf("bits=%d %s: bad offsets", bits, side.name)
			}
			mask := uint32(nPart - 1)
			for p := 0; p < nPart; p++ {
				for i := pt.off[p]; i < pt.off[p+1]; i++ {
					if hashKey(pt.keys[i])&mask != uint32(p) {
						t.Fatalf("bits=%d %s: key in wrong partition", bits, side.name)
					}
					if side.withPos && side.keys[pt.pos[i]] != pt.keys[i] {
						t.Fatalf("bits=%d: position does not match key", bits)
					}
				}
			}
		}
	}
}

// Property: all kernels agree with the nested-loop reference on random
// workloads of random shapes, serial and parallel.
func TestKernelEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nDim := rng.Intn(300) + 1
		nFact := rng.Intn(2000)
		in := MakeInput(nDim, nFact, seed)
		wantC, wantS := NestedLoop(in.DimKeys, in.Payload, in.FK)
		for _, w := range []int{1, 3} {
			if c, s := NPO(in.DimKeys, in.Payload, in.FK, w); c != wantC || s != wantS {
				return false
			}
			if c, s := PRO(in.DimKeys, in.Payload, in.FK, w); c != wantC || s != wantS {
				return false
			}
			if c, s := AIR(in.Payload, in.FKPos, w); c != wantC || s != wantS {
				return false
			}
		}
		if c, s := SortMerge(in.DimKeys, in.Payload, in.FK, 1); c != wantC || s != wantS {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Larger sanity run crossing the parallel-dispatch threshold.
func TestKernelEquivalenceLarge(t *testing.T) {
	in := MakeInput(10000, 1<<15, 99)
	wantC, wantS := AIR(in.Payload, in.FKPos, 1)
	if wantC != int64(len(in.FK)) {
		t.Fatalf("AIR count = %d", wantC)
	}
	if c, s := NPO(in.DimKeys, in.Payload, in.FK, 4); c != wantC || s != wantS {
		t.Errorf("NPO large = (%d,%d), want (%d,%d)", c, s, wantC, wantS)
	}
	if c, s := PRO(in.DimKeys, in.Payload, in.FK, 4); c != wantC || s != wantS {
		t.Errorf("PRO large = (%d,%d), want (%d,%d)", c, s, wantC, wantS)
	}
	if c, s := SortMerge(in.DimKeys, in.Payload, in.FK, 1); c != wantC || s != wantS {
		t.Errorf("SortMerge large = (%d,%d), want (%d,%d)", c, s, wantC, wantS)
	}
}
