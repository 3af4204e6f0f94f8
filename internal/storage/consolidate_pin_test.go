package storage

import (
	"sync"
	"testing"
)

// TestConsolidatePinnedErrorPathLeaksNoPins asserts that every pin is
// released on an error path, at the API boundary: both refusal paths of
// Consolidate (table pinned, referrer pinned) leave every pin count
// exactly as they found it, so a rejected consolidation can be retried
// after Release without the table being wedged by a phantom pin.
func TestConsolidatePinnedErrorPathLeaksNoPins(t *testing.T) {
	db, dim, fact := makeStarPair(t)
	if err := dim.Delete(1); err == nil {
		// Deleting a referenced row is rejected only at Consolidate time;
		// retarget the FK first so consolidation would be legal.
		fk := fact.Column("f_dk").(*Int32Col)
		for i, v := range fk.V {
			if v == 1 {
				fk.V[i] = 0
			}
		}
	}

	s := dim.Snapshot()
	if got := dim.Pins(); got != 1 {
		t.Fatalf("dim pins after snapshot = %d, want 1", got)
	}
	if _, err := Consolidate(db, dim); err == nil {
		t.Fatal("consolidation of pinned table accepted")
	}
	if got := dim.Pins(); got != 1 {
		t.Fatalf("dim pins after refused consolidation = %d, want 1 (leak or phantom release)", got)
	}
	s.Release()
	if got := dim.Pins(); got != 0 {
		t.Fatalf("dim pins after release = %d, want 0", got)
	}

	s2 := fact.Snapshot()
	if _, err := Consolidate(db, dim); err == nil {
		t.Fatal("consolidation with pinned referrer accepted")
	}
	if got := fact.Pins(); got != 1 {
		t.Fatalf("fact pins after refused consolidation = %d, want 1", got)
	}
	if got := dim.Pins(); got != 0 {
		t.Fatalf("dim pins after referrer refusal = %d, want 0", got)
	}
	s2.Release()

	// With every pin gone, the same consolidation must now succeed.
	if _, err := Consolidate(db, dim); err != nil {
		t.Fatalf("consolidation after releases: %v", err)
	}
	if dim.Pins() != 0 || fact.Pins() != 0 {
		t.Fatalf("pins after successful consolidation: dim=%d fact=%d", dim.Pins(), fact.Pins())
	}
}

// TestConsolidateConcurrentReferrerPins is the regression test for the
// unlocked referrer-pin read: Consolidate used to read r.From.pins while
// holding only t.mu, racing Snapshot/Release on the referrer (which write
// pins under r.From.mu). Run under -race this test fails on the old code.
func TestConsolidateConcurrentReferrerPins(t *testing.T) {
	db, dim, fact := makeStarPair(t)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	started := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := fact.Snapshot()
			s.Release()
		}
	}()
	<-started

	for i := 0; i < 2000; i++ {
		// The attempt may be refused (referrer momentarily pinned) or
		// succeed as an identity consolidation; either way the pin read
		// must be synchronized.
		_, _ = Consolidate(db, dim)
	}
	close(stop)
	wg.Wait()

	if got := fact.Pins(); got != 0 {
		t.Fatalf("fact pins after churn = %d, want 0", got)
	}
}
