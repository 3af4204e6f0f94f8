package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astore/internal/query"
	"astore/internal/storage"
)

// TestSegmentedAggCacheConcurrent hammers the aggregate cache from every
// direction at once: readers repeatedly execute a warm plan while a writer
// appends, COW-updates and deletes, and a consolidator re-sorts the fact
// table (rebuilding every segment). Run under -race in CI. The invariants:
//
//   - a pinned snapshot is repeatable: executing the same plan twice on one
//     view returns bit-identical results, whether the runs were served from
//     cached partials or computed live (all measures are small integers, so
//     float64 sums are exact and order-independent);
//   - after writers quiesce, the warm cached result equals a cache-free
//     engine's result over the same data;
//   - a consolidate that physically reorders the table (sort key f_val)
//     produces new segments whose stale partials can never be served — the
//     post-consolidate result must equal the pre-consolidate one exactly.
func TestSegmentedAggCacheConcurrent(t *testing.T) {
	fact := clusteredFact(t, 6000, 64)
	if err := fact.SetSegmentTarget(500); err != nil {
		t.Fatal(err)
	}
	if err := fact.SetSortKeys("f_val"); err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	db.MustAdd(fact)
	db.MustAdd(fact.FK("f_dk"))

	eng, err := New(fact, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := warmableQuery()
	ctx := context.Background()

	var stop atomic.Bool
	var wg, readers sync.WaitGroup

	// Writer: appends qualify immediately (the plan has no filters), and
	// updates and deletes give sealed segments new ids. Delete
	// and update errors are expected noise — consolidation renumbers rows
	// underneath us — the correctness burden is on the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if _, err := fact.Insert(map[string]any{"f_seq": 100, "f_dk": 0, "f_val": int64(i % 97)}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			_ = fact.Update((i*37)%3000, "f_val", int64(i%97))
			_ = fact.Delete(3000 + (i*13)%2000)
			time.Sleep(50 * time.Microsecond)
		}
	}()

	// Consolidator: re-sorts by f_val, rebuilding every segment. It loses
	// every race against pinned reader snapshots; the occasional win is the
	// event under test.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_, _ = storage.Consolidate(db, fact)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var c *Compiled
			for i := 0; i < 80; i++ {
				v := eng.Acquire()
				if c == nil || !c.FreshIn(v) {
					var err error
					if c, err = v.Compile(q); err != nil {
						v.Release()
						t.Errorf("compile: %v", err)
						return
					}
				}
				r1, err := eng.Exec(ctx, v, c, nil)
				if err != nil {
					v.Release()
					t.Errorf("exec 1: %v", err)
					return
				}
				r2, err := eng.Exec(ctx, v, c, nil)
				v.Release()
				if err != nil {
					t.Errorf("exec 2: %v", err)
					return
				}
				if err := query.Diff(r1, r2, 0); err != nil {
					t.Errorf("pinned view not repeatable (stale cached partial?): %v", err)
					return
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() { readers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		stop.Store(true)
		t.Fatal("readers did not finish in 60s")
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: warm cached result must equal a cache-free engine's.
	var c *Compiled
	before, _ := execFresh(t, eng, &c, q)
	oracle, err := New(fact, Options{AggCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Diff(want, before, 0); err != nil {
		t.Fatalf("warm result differs from cache-free oracle after writers quiesced: %v", err)
	}

	// Deterministic reordering consolidate: every segment is rebuilt, so
	// every cached partial is keyed to dead segment objects. The result
	// must be permutation-invariant, exactly.
	var cerr error
	for attempt := 0; attempt < 50; attempt++ {
		if _, cerr = storage.Consolidate(db, fact); cerr == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if cerr != nil {
		t.Fatalf("consolidate never succeeded after quiesce: %v", cerr)
	}
	after, _ := execFresh(t, eng, &c, q)
	if err := query.Diff(before, after, 0); err != nil {
		t.Fatalf("result changed across reordering consolidate: %v", err)
	}
}
