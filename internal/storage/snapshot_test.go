package storage

import (
	"sync"
	"testing"
)

// isolationTargets are the sealing thresholds the isolation tests run
// under: one contiguous tail, every row its own sealed segment, a few
// sealed segments, and a threshold the table never reaches.
var isolationTargets = []int{0, 1, 30, 1000}

// isolationTable is segTestTable(n) sealing at target.
func isolationTable(t *testing.T, n, target int) *Table {
	t.Helper()
	tab := segTestTable(n)
	if target > 0 {
		if err := tab.SetSegmentTarget(target); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// vAt reads column v of a global row through segment views.
func vAt(t *testing.T, views []SegView, row int) int64 {
	t.Helper()
	for _, sv := range views {
		if row >= sv.Base && row < sv.Base+sv.N {
			v, _ := Int64At(sv.Cols["v"], row-sv.Base)
			return v
		}
	}
	t.Fatalf("row %d not visible in views", row)
	return 0
}

// TestSnapshotIsolation: appends, updates, and deletes after a snapshot
// must be invisible to it, a second snapshot sees its own version, and the
// arrays a snapshot pins are never written in place — whatever the layout.
// A write to a sealed row replaces the live table's segment with a copy
// under a new id: the snapshot's views keep their ids, chunks and bitmaps.
func TestSnapshotIsolation(t *testing.T) {
	for _, target := range isolationTargets {
		tab := isolationTable(t, 95, target)
		// A bitmap for s1 to pin; without a threshold, Insert would refill
		// the slot.
		if target > 0 {
			if err := tab.Delete(41); err != nil {
				t.Fatal(err)
			}
		}
		s1 := tab.Snapshot()
		views1 := s1.SegViews()
		pinned := views1[0].Cols["v"].(*Int64Col).V
		before := append([]int64(nil), pinned...)

		if _, err := tab.Insert(map[string]any{"v": int64(1000), "k": int32(0)}); err != nil {
			t.Fatal(err)
		}
		if err := tab.Update(5, "v", int64(-5)); err != nil { // first segment
			t.Fatal(err)
		}
		if err := tab.Update(94, "v", int64(-94)); err != nil { // last row
			t.Fatal(err)
		}
		if err := tab.Delete(10); err != nil {
			t.Fatal(err)
		}
		s2 := tab.Snapshot()
		if err := tab.Update(5, "v", int64(-55)); err != nil {
			t.Fatal(err)
		}
		if err := tab.Update(40, "v", int64(-40)); err != nil {
			t.Fatal(err)
		}
		if err := tab.Delete(40); err != nil {
			t.Fatal(err)
		}

		// Sealed segments holding a written row have new ids in the live
		// table; every other segment keeps its own.
		live := tab.SegViews()
		for i, sv := range views1 {
			got := s1.SegViews()[i]
			if got.ID != sv.ID || got.Cols["v"] != sv.Cols["v"] || got.Del != sv.Del {
				t.Errorf("target %d: pinned view %d changed: id %d -> %d, chunk or bitmap replaced", target, i, sv.ID, got.ID)
			}
			if !sv.Sealed {
				continue
			}
			written := false
			for _, row := range []int{5, 10, 40, 94} { // 41 went before s1
				written = written || row >= sv.Base && row < sv.Base+sv.N
			}
			if (live[i].ID != sv.ID) != written {
				t.Errorf("target %d: segment %d (written %v): id %d -> %d", target, i, written, sv.ID, live[i].ID)
			}
		}

		if s1.NumRows() != 95 || s2.NumRows() != 96 || tab.NumRows() != 96 {
			t.Fatalf("target %d: rows s1 %d, s2 %d, live %d; want 95, 96, 96", target, s1.NumRows(), s2.NumRows(), tab.NumRows())
		}
		visible := 0
		for _, sv := range s1.SegViews() {
			visible += sv.N
		}
		if visible != 95 {
			t.Errorf("target %d: s1 views cover %d rows, want 95", target, visible)
		}
		if s1.IsDeleted(10) || !s2.IsDeleted(10) || !tab.IsDeleted(10) {
			t.Errorf("target %d: row 10 deleted: s1 %v, s2 %v, live %v; want false, true, true",
				target, s1.IsDeleted(10), s2.IsDeleted(10), tab.IsDeleted(10))
		}
		if s1.IsDeleted(40) || s2.IsDeleted(40) || !tab.IsDeleted(40) || s1.IsDeleted(41) != (target > 0) {
			t.Errorf("target %d: rows 40, 41 deleted: s1 %v %v, s2 %v, live %v; want false, target > 0, false, true",
				target, s1.IsDeleted(40), s1.IsDeleted(41), s2.IsDeleted(40), tab.IsDeleted(40))
		}
		for _, c := range []struct {
			what  string
			views []SegView
			r5    int64
			r94   int64
		}{{"s1", s1.SegViews(), 5, 94}, {"s2", s2.SegViews(), -5, -94}, {"live", tab.SegViews(), -55, -94}} {
			if got := vAt(t, c.views, 5); got != c.r5 {
				t.Errorf("target %d: %s row 5 = %d, want %d", target, c.what, got, c.r5)
			}
			if got := vAt(t, c.views, 94); got != c.r94 {
				t.Errorf("target %d: %s row 94 = %d, want %d", target, c.what, got, c.r94)
			}
		}
		for i, v := range pinned {
			if v != before[i] {
				t.Fatalf("target %d: pinned array written in place at %d: %d -> %d", target, i, before[i], v)
			}
		}
		if target == 0 {
			// One contiguous array per column, capped at the snapshot.
			if got := s1.Column("v").Len(); got != 95 {
				t.Errorf("s1 column length = %d, want 95", got)
			}
		} else if s1.Column("v") != nil || tab.Column("v") != nil {
			t.Errorf("target %d: Column handed out a chunk of a table that seals segments", target)
		}

		s1.Release()
		s2.Release()
		s2.Release() // double release is a no-op
		if tab.Pins() != 0 {
			t.Fatalf("target %d: pins = %d after release", target, tab.Pins())
		}
		// With nothing pinned, a delete writes a sealed segment's bitmap in
		// place: the write gate's copy of the segment is all it allocates.
		if target == 30 {
			row := 11 // rows 11..21 of the first segment, which has a bitmap
			allocs := testing.AllocsPerRun(10, func() {
				if err := tab.Delete(row); err != nil {
					t.Fatal(err)
				}
				row++
			})
			if allocs > 1 {
				t.Errorf("unpinned delete of a sealed row: %v allocations, want 1 (no bitmap copy)", allocs)
			}
			// An update writes the sealed plain chunk in place too.
			v0 := tab.SegViews()[0].Cols["v"].(*Int64Col).V
			if err := tab.Update(0, "v", int64(3)); err != nil {
				t.Fatal(err)
			}
			if v1 := tab.SegViews()[0].Cols["v"].(*Int64Col).V; &v1[0] != &v0[0] || v1[0] != 3 {
				t.Errorf("unpinned update of a sealed row copied the chunk (or lost the write: %d)", v1[0])
			}
		}
		// With nothing pinned, a write to the tail is in place again.
		last := tab.SegViews()
		tailChunk := last[len(last)-1].Cols["v"].(*Int64Col).V
		if len(tailChunk) > 0 {
			row := tab.NumRows() - 1
			if err := tab.Update(row, "v", int64(7)); err != nil {
				t.Fatal(err)
			}
			if tailChunk[len(tailChunk)-1] != 7 {
				t.Errorf("target %d: update cloned the tail chunk after all snapshots were released", target)
			}
		}
	}
}

// TestSnapshotSlotReuse: a table that never seals fills the hole a delete
// left, in place, and a snapshot taken between the two must keep the row
// invisible AND keep the old value; a table that seals appends instead.
func TestSnapshotSlotReuse(t *testing.T) {
	for _, target := range isolationTargets {
		tab := isolationTable(t, 3, target)
		if err := tab.Delete(2); err != nil {
			t.Fatal(err)
		}
		s := tab.Snapshot()
		row, err := tab.Insert(map[string]any{"v": int64(77), "k": int32(1)})
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{true: 2, false: 3}[target == 0]; row != want {
			t.Fatalf("target %d: insert landed at row %d, want %d", target, row, want)
		}
		if !s.IsDeleted(2) {
			t.Errorf("target %d: snapshot sees resurrected row", target)
		}
		if got := vAt(t, s.SegViews(), 2); got != 2 {
			t.Errorf("target %d: snapshot sees reused slot value %d", target, got)
		}
		if tab.IsDeleted(row) || vAt(t, tab.SegViews(), row) != 77 {
			t.Errorf("target %d: live table lost the insert", target)
		}
		s.Release()
	}
}

// Concurrent snapshot readers with an active writer: the reader's sums must
// equal one of the stable versions (run with -race to check synchronization).
func TestSnapshotConcurrentReaderWriter(t *testing.T) {
	for _, target := range isolationTargets {
		tab := isolationTable(t, 0, target)
		n := 1000
		for i := 0; i < n; i++ {
			if _, err := tab.Insert(map[string]any{"v": int64(1), "k": int32(0)}); err != nil {
				t.Fatal(err)
			}
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i = (i + 1) % n {
				select {
				case <-stop:
					return
				default:
				}
				if err := tab.Update(i, "v", int64(2)); err != nil {
					t.Error(err)
					return
				}
			}
		}()

		for k := 0; k < 50; k++ {
			s := tab.Snapshot()
			// Every row is 1 or 2, and the snapshot is stable: re-summing
			// gives the same result.
			var sums [2]int64
			for pass := range sums {
				for _, sv := range s.SegViews() {
					for _, x := range sv.Cols["v"].(*Int64Col).V {
						sums[pass] += x
					}
				}
			}
			if sums[0] != sums[1] {
				t.Fatalf("target %d: snapshot unstable: %d vs %d", target, sums[0], sums[1])
			}
			if sums[0] < int64(n) || sums[0] > 2*int64(n) {
				t.Fatalf("target %d: impossible sum %d", target, sums[0])
			}
			s.Release()
		}
		close(stop)
		wg.Wait()
	}
}
