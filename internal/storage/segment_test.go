package storage

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// segTestTable builds a flat two-column table with n rows: v[i] = i (int64),
// k[i] = i % 7 (int32).
func segTestTable(n int) *Table {
	v := make([]int64, n)
	k := make([]int32, n)
	for i := 0; i < n; i++ {
		v[i] = int64(i)
		k[i] = int32(i % 7)
	}
	t := NewTable("seg")
	t.MustAddColumn("v", NewInt64Col(v))
	t.MustAddColumn("k", NewInt32Col(k))
	return t
}

func TestSetSegmentTargetRechunks(t *testing.T) {
	tab := segTestTable(250)
	if err := tab.SetSegmentTarget(100); err != nil {
		t.Fatal(err)
	}
	if tab.SegmentTarget() == 0 {
		t.Fatal("table not segmented")
	}
	sealed, total := tab.SegmentCounts()
	if sealed != 2 || total != 3 {
		t.Fatalf("segments = %d sealed / %d total, want 2/3", sealed, total)
	}
	if tab.NumRows() != 250 {
		t.Fatalf("NumRows = %d, want 250", tab.NumRows())
	}
	// Row ids are preserved: read every row back through segment views.
	seen := 0
	for _, sv := range tab.SegViews() {
		vc := sv.Cols["v"].(*Int64Col)
		for i := 0; i < sv.N; i++ {
			if got, want := vc.V[i], int64(sv.Base+i); got != want {
				t.Fatalf("row %d = %d, want %d", sv.Base+i, got, want)
			}
			seen++
		}
	}
	if seen != 250 {
		t.Fatalf("visited %d rows, want 250", seen)
	}

	// Re-segmenting a table whose sealed segments are encoded and hold
	// deleted rows, to a smaller and to a larger target, moves no value and
	// no deletion bit; every sealed segment is re-encoded with exact zones.
	if err := tab.EncodeSealed(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{3, 99, 100, 101, 180, 249} {
		if err := tab.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	want := segRows(t, tab)
	for _, target := range []int{30, 160} {
		if err := tab.SetSegmentTarget(target); err != nil {
			t.Fatal(err)
		}
		if tab.NumRows() != 250 || tab.NumLive() != 244 {
			t.Fatalf("target %d: NumRows/NumLive = %d/%d, want 250/244", target, tab.NumRows(), tab.NumLive())
		}
		if sealed, _ := tab.SegmentCounts(); sealed != (250-1)/target {
			t.Fatalf("target %d: %d sealed segments, want %d", target, sealed, (250-1)/target)
		}
		got := segRows(t, tab)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("target %d: row %d = %v (v, k, deleted), want %v", target, i, got[i], want[i])
			}
		}
		for _, sv := range tab.SegViews() {
			if sv.Sealed && ChunkEncoding(sv.Cols["v"]) == EncPlain {
				t.Fatalf("target %d: sealed segment at %d left v plain", target, sv.Base)
			}
			for c, name := range []string{"v", "k"} {
				z := sv.Zones[name]
				lo, hi := want[sv.Base][c], want[sv.Base][c]
				for _, r := range want[sv.Base : sv.Base+sv.N] {
					lo, hi = min(lo, r[c]), max(hi, r[c])
				}
				if !z.OK || z.MinI > lo || z.MaxI < hi || (sv.Sealed && (z.MinI != lo || z.MaxI != hi)) {
					t.Fatalf("target %d: segment at %d zone %s = %+v, rows span [%d, %d]", target, sv.Base, name, z, lo, hi)
				}
			}
		}
	}
}

// segRow is one row of a segTestTable as read through its segment views:
// v, k and whether the row is deleted (1) or not (0).
type segRow = [3]int64

// segRows reads every row of a segTestTable through its segment views.
func segRows(t *testing.T, tab *Table) []segRow {
	t.Helper()
	var out []segRow
	for _, sv := range tab.SegViews() {
		for i := 0; i < sv.N; i++ {
			v, _ := Int64At(sv.Cols["v"], i)
			k, _ := Int64At(sv.Cols["k"], i)
			var del int64
			if sv.Del != nil && sv.Del.Get(i) {
				del = 1
			}
			out = append(out, segRow{v, k, del})
		}
	}
	return out
}

func TestSealOnAppendOverflowAndZones(t *testing.T) {
	tab := segTestTable(0)
	if err := tab.SetSegmentTarget(10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		row, err := tab.Insert(map[string]any{"v": int64(100 + i), "k": int32(i)})
		if err != nil {
			t.Fatal(err)
		}
		if row != i {
			t.Fatalf("insert %d returned row %d", i, row)
		}
	}
	sealed, total := tab.SegmentCounts()
	if sealed != 2 || total != 3 {
		t.Fatalf("segments = %d/%d, want 2 sealed of 3", sealed, total)
	}
	svs := tab.SegViews()
	z := svs[0].Zones["v"]
	if !z.OK || z.MinI != 100 || z.MaxI != 109 {
		t.Fatalf("segment 0 zone for v = %+v, want [100,109]", z)
	}
	z = svs[2].Zones["v"]
	if !z.OK || z.MinI != 120 || z.MaxI != 124 {
		t.Fatalf("tail zone for v = %+v, want [120,124]", z)
	}
	if !svs[0].Sealed || svs[2].Sealed {
		t.Fatalf("sealed flags wrong: %v %v", svs[0].Sealed, svs[2].Sealed)
	}
}

// TestSegmentedUpdateWidensZones: in-place updates keep zone maps
// conservative (they widen, never narrow).
func TestSegmentedUpdateWidensZones(t *testing.T) {
	tab := segTestTable(60)
	if err := tab.SetSegmentTarget(20); err != nil {
		t.Fatal(err)
	}
	if err := tab.Update(5, "v", int64(100000)); err != nil {
		t.Fatal(err)
	}
	z := tab.SegViews()[0].Zones["v"]
	if z.MaxI < 100000 {
		t.Fatalf("zone not widened: %+v", z)
	}
}

func TestSegmentedVersionSplit(t *testing.T) {
	tab := segTestTable(10)
	s0, d0 := tab.SchemaVersion(), tab.DataVersion()
	if err := tab.SetSegmentTarget(4); err != nil {
		t.Fatal(err)
	}
	if tab.SchemaVersion() == s0 {
		t.Error("SetSegmentTarget did not bump SchemaVersion")
	}
	s1 := tab.SchemaVersion()
	if _, err := tab.Insert(map[string]any{"v": int64(1), "k": int32(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := tab.Update(1, "v", int64(9)); err != nil {
		t.Fatal(err)
	}
	if tab.SchemaVersion() != s1 {
		t.Error("data mutations bumped SchemaVersion")
	}
	if tab.DataVersion() <= d0 {
		t.Error("data mutations did not advance DataVersion")
	}
}

// TestSegmentedConsolidate: consolidation rebuilds segments without the
// deleted rows, renumbers, and rewrites referrer FK columns (both flat and
// segmented referrers).
func TestSegmentedConsolidate(t *testing.T) {
	db := NewDatabase()
	dim := segTestTable(50)
	dim.Name = "dim"
	if err := dim.SetSegmentTarget(16); err != nil {
		t.Fatal(err)
	}
	db.MustAdd(dim)

	ref := NewTable("ref")
	fk := make([]int32, 20)
	for i := range fk {
		fk[i] = int32(i * 2) // even dim rows
	}
	ref.MustAddColumn("fk", NewInt32Col(fk))
	ref.MustAddFK("fk", dim)
	db.MustAdd(ref)

	// Delete odd dim rows (never referenced).
	for i := 1; i < 50; i += 2 {
		if err := dim.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	remap, err := Consolidate(db, dim)
	if err != nil {
		t.Fatal(err)
	}
	if dim.NumRows() != 25 || dim.NumLive() != 25 {
		t.Fatalf("after consolidate: rows=%d live=%d, want 25/25", dim.NumRows(), dim.NumLive())
	}
	if remap[0] != 0 || remap[1] != -1 || remap[2] != 1 {
		t.Fatalf("remap prefix = %v", remap[:3])
	}
	if err := db.ValidateAIR(); err != nil {
		t.Fatalf("AIR invariant broken after consolidate: %v", err)
	}
	// Surviving values preserved in order.
	for _, sv := range dim.SegViews() {
		vc := sv.Cols["v"].(*Int64Col)
		for i := 0; i < sv.N; i++ {
			if got, want := vc.V[i], int64((sv.Base+i)*2); got != want {
				t.Fatalf("dim row %d = %d, want %d", sv.Base+i, got, want)
			}
		}
	}
}

// TestConsolidateSegmentedReferrer: consolidating a flat dimension rewrites
// a segmented fact's FK chunks and gives each sealed segment a new id.
func TestConsolidateSegmentedReferrer(t *testing.T) {
	db := NewDatabase()
	dim := NewTable("dim")
	dv := make([]int64, 10)
	for i := range dv {
		dv[i] = int64(i)
	}
	dim.MustAddColumn("dv", NewInt64Col(dv))
	db.MustAdd(dim)

	fact := NewTable("fact")
	fk := make([]int32, 40)
	for i := range fk {
		fk[i] = int32(2 + i%8) // rows 2..9
	}
	fact.MustAddColumn("fk", NewInt32Col(fk))
	fact.MustAddFK("fk", dim)
	db.MustAdd(fact)
	if err := fact.SetSegmentTarget(16); err != nil {
		t.Fatal(err)
	}
	idBefore := fact.SegViews()[0].ID

	if err := dim.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := dim.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := Consolidate(db, dim); err != nil {
		t.Fatal(err)
	}
	if err := db.ValidateAIR(); err != nil {
		t.Fatalf("AIR broken: %v", err)
	}
	svs := fact.SegViews()
	if svs[0].ID == idBefore {
		t.Error("segment id kept across an FK rewrite")
	}
	// FK values shifted down by 2; zones recomputed.
	z := svs[0].Zones["fk"]
	if !z.OK || z.MinI != 0 || z.MaxI != 7 {
		t.Fatalf("fk zone = %+v, want [0,7]", z)
	}
}

func TestSegmentedPersistRoundtrip(t *testing.T) {
	db := NewDatabase()
	tab := segTestTable(77)
	if err := tab.SetSegmentTarget(30); err != nil {
		t.Fatal(err)
	}
	if err := tab.Delete(13); err != nil {
		t.Fatal(err)
	}
	if err := tab.Delete(65); err != nil {
		t.Fatal(err)
	}
	db.MustAdd(tab)

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lt := got.Table("seg")
	if lt.SegmentTarget() != 30 {
		t.Fatalf("loaded table not segmented at 30 (target %d)", lt.SegmentTarget())
	}
	sealed, total := lt.SegmentCounts()
	if sealed != 2 || total != 3 {
		t.Fatalf("loaded segments = %d/%d, want 2 sealed of 3", sealed, total)
	}
	if lt.NumRows() != 77 || lt.NumLive() != 75 {
		t.Fatalf("loaded rows=%d live=%d, want 77/75", lt.NumRows(), lt.NumLive())
	}
	if !lt.IsDeleted(13) || !lt.IsDeleted(65) || lt.IsDeleted(14) {
		t.Fatal("deletion bits lost in roundtrip")
	}
	for _, sv := range lt.SegViews() {
		vc := sv.Cols["v"].(*Int64Col)
		for i := 0; i < sv.N; i++ {
			if got, want := vc.V[i], int64(sv.Base+i); got != want {
				t.Fatalf("row %d = %d, want %d", sv.Base+i, got, want)
			}
		}
		z := sv.Zones["v"]
		if !z.OK || z.MinI != int64(sv.Base) || z.MaxI != int64(sv.Base+sv.N-1) {
			t.Fatalf("zone not recomputed on load: %+v (base %d, n %d)", z, sv.Base, sv.N)
		}
	}
}

// TestSaveWhileAppending: Database.Save must serialize with writers so a
// segmented table's manifest, payloads, and deletion bits describe one
// consistent state (exercised under -race by CI).
func TestSaveWhileAppending(t *testing.T) {
	db := NewDatabase()
	tab := segTestTable(0)
	if err := tab.SetSegmentTarget(32); err != nil {
		t.Fatal(err)
	}
	db.MustAdd(tab)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tab.Insert(map[string]any{"v": int64(i), "k": int32(i % 7)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 6; i++ {
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := LoadDatabase(&buf)
		if err != nil {
			t.Fatalf("image written mid-ingest does not load: %v", err)
		}
		lt := got.Table("seg")
		// The loaded image is internally consistent: v[i] == i row ids.
		for _, sv := range lt.SegViews() {
			vc := sv.Cols["v"].(*Int64Col)
			for j := 0; j < sv.N; j++ {
				if vc.V[j] != int64(sv.Base+j) {
					t.Fatalf("loaded row %d = %d", sv.Base+j, vc.V[j])
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestAppendRacesReferencedConsolidate: fact appends that reference the
// dimension's last row race rounds of deleting dimension row 0 and
// consolidating the dimension, which renumbers every row and remaps the
// fact's keys. A key is checked and stored under the dimension's lock, so
// no consolidation comes in between: an append either stores a key of the
// current layout or is refused with ErrForeignKey, nothing panics, and at
// the end AIR holds and every fact row still names the last dimension row.
func TestAppendRacesReferencedConsolidate(t *testing.T) {
	const dimRows, rounds, writers = 400, 300, 4
	dim := NewTable("dim")
	dim.MustAddColumn("d", NewInt64Col(make([]int64, dimRows)))
	fact := NewTable("fact")
	fact.MustAddColumn("fk", NewInt32Col(nil))
	fact.MustAddFK("fk", dim)
	if err := fact.SetSegmentTarget(64); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	db.MustAdd(dim)
	db.MustAdd(fact)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1 + writers)
	go func() {
		defer wg.Done()
		defer close(done)
		for range rounds {
			if err := dim.Delete(0); err != nil {
				t.Error(err)
				return
			}
			if _, err := Consolidate(db, dim); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range writers {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				last := int32(dim.Layout().Rows - 1)
				batch := []map[string]any{{"fk": last}, {"fk": last}, {"fk": last}}
				if _, err := fact.Append(batch); err != nil && !errors.Is(err, ErrForeignKey) {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := db.ValidateAIR(); err != nil {
		t.Fatal(err)
	}
	last := dim.NumRows() - 1
	for _, sv := range fact.SegViews() {
		for i, v := range DecodeChunk(sv.Cols["fk"]).(*Int32Col).V[:sv.N] {
			if int(v) != last {
				t.Fatalf("fact row %d names dimension row %d, want the last, %d", sv.Base+i, v, last)
			}
		}
	}
}

// TestConcurrentAppendConsolidateSnapshots is the -race satellite: one
// writer appends and occasionally deletes + consolidates, while reader
// goroutines take snapshots and verify internal consistency. Asserts zero
// leaked pins and that sealed arrays pinned by a snapshot are never
// mutated in place.
func TestConcurrentAppendConsolidateSnapshots(t *testing.T) {
	db := NewDatabase()
	tab := segTestTable(0)
	if err := tab.SetSegmentTarget(64); err != nil {
		t.Fatal(err)
	}
	db.MustAdd(tab)

	const (
		writers  = 2
		readers  = 4
		perwrite = 400
	)
	var writeWG, readWG sync.WaitGroup
	var inserted atomic.Int64
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perwrite; i++ {
				row, err := tab.Insert(map[string]any{"v": int64(1), "k": int32(i % 7)})
				if err != nil {
					t.Error(err)
					return
				}
				inserted.Add(1)
				if w == 0 && i%97 == 41 {
					// Delete the row just inserted and try to consolidate;
					// pinned tables refuse, which is fine (retried next
					// round). Only this goroutine consolidates, so row still
					// names that row.
					if err := tab.Delete(row); err == nil {
						_, _ = Consolidate(db, tab)
					}
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := tab.Snapshot()
				// Internal consistency of the pinned view: every segment's
				// chunks agree in length with the visible row count, and
				// the v column (all ones) sums to the live row count.
				var sum, live int64
				var sealedChunks [][]int64
				var sealedCopies [][]int64
				for _, sv := range snap.SegViews() {
					vc := sv.Cols["v"].(*Int64Col)
					if len(vc.V) < sv.N {
						t.Errorf("chunk len %d < visible %d", len(vc.V), sv.N)
					}
					for i := 0; i < sv.N; i++ {
						if sv.Del != nil && sv.Del.Get(i) {
							continue
						}
						sum += vc.V[i]
						live++
					}
					if sv.Sealed {
						sealedChunks = append(sealedChunks, vc.V[:sv.N])
						sealedCopies = append(sealedCopies, append([]int64(nil), vc.V[:sv.N]...))
					}
				}
				if sum != live {
					t.Errorf("snapshot sum %d != live rows %d", sum, live)
				}
				// Re-read the pinned sealed arrays: a concurrent writer
				// must never have mutated them in place.
				for ci, chunk := range sealedChunks {
					for i, v := range chunk {
						if v != sealedCopies[ci][i] {
							t.Errorf("pinned sealed array mutated in place")
						}
					}
				}
				snap.Release()
			}
		}()
	}

	// Wait for the writers, then stop the readers.
	writeWG.Wait()
	close(stop)
	readWG.Wait()

	if tab.Pins() != 0 {
		t.Fatalf("leaked pins: %d", tab.Pins())
	}
	if inserted.Load() != int64(writers*perwrite) {
		t.Fatalf("inserted %d rows, want %d", inserted.Load(), writers*perwrite)
	}
	if err := tab.ValidateAIR(); err != nil {
		t.Fatal(err)
	}
	// Sanity: the v column still sums to live rows.
	var sum int64
	for _, sv := range tab.SegViews() {
		vc := sv.Cols["v"].(*Int64Col)
		for i := 0; i < sv.N; i++ {
			if sv.Del == nil || !sv.Del.Get(i) {
				sum += vc.V[i]
			}
		}
	}
	if sum != int64(tab.NumLive()) {
		t.Fatalf("final sum %d != live %d", sum, tab.NumLive())
	}
}

// TestConcurrentAppendConsolidateSnapshotsReordering is the PR 8 variant
// of the race satellite: sort keys and sealed-chunk encodings are on, so
// Consolidate does attribute reordering and re-encodes, while writers keep
// appending and readers hold pinned snapshots. Reordering permutes row
// positions, so readers verify permutation-invariant facts — the live sum
// and the value multiset — plus the sealed-chunk immutability guarantee:
// a chunk visible through a pinned snapshot never changes under the
// reader's feet, whatever its encoding.
func TestConcurrentAppendConsolidateSnapshotsReordering(t *testing.T) {
	db := NewDatabase()
	tab := segTestTable(0)
	if err := tab.SetSegmentTarget(64); err != nil {
		t.Fatal(err)
	}
	if err := tab.SetSortKeys("k"); err != nil {
		t.Fatal(err)
	}
	if err := tab.EncodeSealed(); err != nil {
		t.Fatal(err)
	}
	db.MustAdd(tab)

	const (
		writers  = 2
		readers  = 4
		perwrite = 400
	)
	var writeWG, readWG sync.WaitGroup
	var inserted, reordered atomic.Int64
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perwrite; i++ {
				if _, err := tab.Insert(map[string]any{"v": int64(1), "k": int32(i % 7)}); err != nil {
					t.Error(err)
					return
				}
				inserted.Add(1)
				if w == 0 && i%61 == 17 {
					// Reordering consolidation: clusters by k and re-seals.
					// Pinned tables refuse, which is fine (retried later).
					if _, err := Consolidate(db, tab); err == nil {
						reordered.Add(1)
					}
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := tab.Snapshot()
				// Permutation-invariant consistency of the pinned view: the
				// all-ones v column sums to the live count whatever order
				// consolidation left the rows in, and every chunk answers
				// for all visible rows regardless of encoding.
				var sum, live int64
				type pinned struct {
					vc, kc Column
					n      int
					vvals  []int64
					kvals  []int64
				}
				var sealedPins []pinned
				for _, sv := range snap.SegViews() {
					vc := sv.Cols["v"]
					kc := sv.Cols["k"]
					if vc.Len() < sv.N || kc.Len() < sv.N {
						t.Errorf("chunk len %d/%d < visible %d", vc.Len(), kc.Len(), sv.N)
					}
					for i := 0; i < sv.N; i++ {
						if sv.Del != nil && sv.Del.Get(i) {
							continue
						}
						x, ok := Int64At(vc, i)
						if !ok {
							t.Errorf("unreadable v chunk %T", vc)
						}
						sum += x
						live++
						if k, _ := Int64At(kc, i); k < 0 || k > 6 {
							t.Errorf("k value %d out of domain", k)
						}
					}
					if sv.Sealed {
						vvals := make([]int64, sv.N)
						kvals := make([]int64, sv.N)
						for i := 0; i < sv.N; i++ {
							vvals[i], _ = Int64At(vc, i)
							kvals[i], _ = Int64At(kc, i)
						}
						sealedPins = append(sealedPins, pinned{vc: vc, kc: kc, n: sv.N, vvals: vvals, kvals: kvals})
					}
				}
				if sum != live {
					t.Errorf("snapshot sum %d != live rows %d", sum, live)
				}
				// Re-read the pinned sealed chunks: consolidation rewrites
				// via copy-on-write, so the headers a snapshot pinned must
				// still decode to the same values.
				for _, p := range sealedPins {
					for i := 0; i < p.n; i++ {
						x, _ := Int64At(p.vc, i)
						y, _ := Int64At(p.kc, i)
						if x != p.vvals[i] || y != p.kvals[i] {
							t.Errorf("pinned sealed chunk mutated in place")
						}
					}
				}
				snap.Release()
			}
		}()
	}

	writeWG.Wait()
	close(stop)
	readWG.Wait()

	if tab.Pins() != 0 {
		t.Fatalf("leaked pins: %d", tab.Pins())
	}
	if inserted.Load() != int64(writers*perwrite) {
		t.Fatalf("inserted %d rows, want %d", inserted.Load(), writers*perwrite)
	}
	if err := tab.ValidateAIR(); err != nil {
		t.Fatal(err)
	}
	// The run finished with encodings live: constant-run v chunks compress,
	// and at least one chunk sealed encoded (otherwise the test exercised
	// nothing).
	if comp := tab.Compression(); comp.EncodedChunks == 0 {
		t.Errorf("no encoded chunks after run: %+v", comp)
	}
	// Final consolidation clusters fully; afterwards k is non-decreasing
	// across the sealed fact rows (the reordering contract).
	if _, err := Consolidate(db, tab); err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	var sum int64
	for _, sv := range tab.SegViews() {
		kc := sv.Cols["k"]
		vc := sv.Cols["v"]
		for i := 0; i < sv.N; i++ {
			if sv.Del != nil && sv.Del.Get(i) {
				continue
			}
			k, _ := Int64At(kc, i)
			if k < prev {
				t.Fatalf("sort key not clustered after final consolidate: %d after %d", k, prev)
			}
			prev = k
			x, _ := Int64At(vc, i)
			sum += x
		}
	}
	if sum != int64(tab.NumLive()) {
		t.Fatalf("final sum %d != live %d", sum, tab.NumLive())
	}
}
