package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"astore/internal/baseline"
	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/db"
	"astore/internal/query"
	"astore/internal/sql"
	"astore/internal/storage"
	"astore/internal/testutil"
)

// starDB opens a segmented testutil star database.
func starDB(t *testing.T, seed int64, nFact, segRows int) (*db.DB, *storage.Table) {
	t.Helper()
	fact := testutil.BuildStar(seed, nFact)
	d, err := db.Open(testutil.Catalog(fact), core.Options{SegmentRows: segRows})
	if err != nil {
		t.Fatal(err)
	}
	return d, fact
}

// TestCoordinatorSSBOracle is the acceptance oracle: all 13 SSB queries,
// sent as their SQL text, return through the coordinator exactly the
// hash-join oracle's answers for every shard count. SSB measures are
// integer-valued, so sums are exact in float64 and the comparison
// tolerates nothing.
func TestCoordinatorSSBOracle(t *testing.T) {
	ctx := context.Background()
	texts := ssb.QueriesSQL()
	statement := func(q *query.Query) string { return texts[q.Name] }
	coordinator := func(nShards int) testutil.Target {
		return testutil.Target{Name: fmt.Sprintf("%d shards", nShards), Open: func(t testing.TB, fact *storage.Table) func(*query.Query, testutil.Run) (*query.Result, error) {
			d, err := db.Open(testutil.Catalog(fact), core.Options{SegmentRows: 2048})
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(d, NewLocalWorkers(d, nShards), Options{})
			if err != nil {
				t.Fatal(err)
			}
			return func(q *query.Query, _ testutil.Run) (*query.Result, error) {
				got, meta, err := c.Exec(ctx, statement(q))
				if err != nil {
					return nil, err
				}
				if meta.Shards != nShards || meta.Fact != "lineorder" || len(meta.Versions) != nShards {
					return nil, fmt.Errorf("meta %+v", meta)
				}
				for w, v := range meta.Versions {
					if v == 0 {
						return nil, fmt.Errorf("worker %s pinned version 0", w)
					}
				}
				return got, nil
			}
		}}
	}
	testutil.Matrix{
		Queries:  ssb.Queries(),
		Fixtures: []testutil.Fixture{testutil.Sealed("", 0, func() *storage.Table { return ssb.Generate(ssb.Config{SF: 0.005, Seed: 7}).Lineorder })},
		Targets:  []testutil.Target{coordinator(1), coordinator(2), coordinator(3), coordinator(4)},
		Oracle: func(twin *storage.Table, q *query.Query) (*query.Result, error) {
			return baseline.NewHashJoinEngine(twin).Run(q)
		},
		Render: statement,
	}.Run(t)
}

// TestCoordinatorAnyPartition is the partition-invariance property at the
// coordinator layer: ANY disjoint covering assignment of segments to
// workers merges to the oracle's result.
func TestCoordinatorAnyPartition(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	var trials []testutil.Target
	for trial := 0; trial < 5; trial++ {
		nShards := 2 + rng.Intn(3)
		// Random disjoint covering partition, overriding the canonical
		// round-robin slices.
		assign := make(map[int]int)
		for i := 0; i < 64; i++ {
			assign[i] = rng.Intn(nShards)
		}
		trials = append(trials, testutil.Target{Name: fmt.Sprintf("trial %d", trial), Open: func(t testing.TB, fact *storage.Table) func(*query.Query, testutil.Run) (*query.Result, error) {
			d, err := db.Open(testutil.Catalog(fact), core.Options{SegmentRows: 512})
			if err != nil {
				t.Fatal(err)
			}
			ws := NewLocalWorkers(d, nShards)
			for s, w := range ws {
				w.(*LocalWorker).Select = func(i int, sv *storage.SegView) bool { return assign[i] == s }
			}
			c, err := New(d, ws, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return func(q *query.Query, _ testutil.Run) (*query.Result, error) {
				// The coordinator ships a builder query as its SQL rendering.
				got, _, err := c.Exec(ctx, sql.Render(q))
				return got, err
			}
		}})
	}
	testutil.Matrix{
		Queries:  testutil.StarQueries(),
		Fixtures: []testutil.Fixture{testutil.Star(41, 6000, 0)},
		Targets:  trials,
		Render:   sql.Render,
		Tol:      1e-9,
	}.Run(t)
}

// fakeWorker scripts version sequences for protocol tests. Partial is nil
// (a legal empty contribution), so these tests exercise only the
// scatter/consistency machinery.
type fakeWorker struct {
	name     string
	domain   string
	versions []uint64 // DataVersion per successive call
	err      error    // returned on every call when set
	calls    int
	mu       sync.Mutex
}

func (w *fakeWorker) Name() string { return w.name }

func (w *fakeWorker) Exec(ctx context.Context, req ExecRequest) (*ExecResult, error) {
	w.mu.Lock()
	i := w.calls
	w.calls++
	w.mu.Unlock()
	if w.err != nil {
		return nil, w.err
	}
	if i >= len(w.versions) {
		i = len(w.versions) - 1
	}
	v := w.versions[i]
	if req.ExpectDataVersion != 0 && v != req.ExpectDataVersion {
		return nil, &db.VersionMismatchError{Fact: "fact", Want: req.ExpectDataVersion, Got: v}
	}
	return &ExecResult{Fact: "fact", Domain: w.domain, SchemaVersion: 1, DataVersion: v}, nil
}

func (w *fakeWorker) Ping(ctx context.Context) error { return w.err }

// protoDB is a small real DB for protocol tests (the coordinator still
// parses and merges against it).
func protoDB(t *testing.T) *db.DB {
	d, _ := starDB(t, 42, 500, 256)
	return d
}

const protoSQL = "SELECT c_region, SUM(f_revenue) AS rev FROM universal_table GROUP BY c_region ORDER BY c_region"

// TestCoordinatorRepin: a version disagreement on the first scatter heals
// through the single re-pin pass.
func TestCoordinatorRepin(t *testing.T) {
	d := protoDB(t)
	// Worker a pinned v5 before an append, worker b after; the retry pins
	// both at 6.
	a := &fakeWorker{name: "a", domain: "dom", versions: []uint64{5, 6}}
	b := &fakeWorker{name: "b", domain: "dom", versions: []uint64{6, 6}}
	c, err := New(d, []Worker{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, meta, err := c.Exec(context.Background(), protoSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Repinned {
		t.Fatal("re-pin pass did not fire")
	}
	if meta.Versions["a"] != 6 || meta.Versions["b"] != 6 {
		t.Fatalf("version vector %v not consistent at 6", meta.Versions)
	}
	if st := c.Stats(); st.Repins != 1 || st.Scatters != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCoordinatorFailsClosed: a second disagreement (an append raced the
// re-pin) fails with InconsistentError instead of merging mixed versions.
func TestCoordinatorFailsClosed(t *testing.T) {
	d := protoDB(t)
	// Worker a never reaches 6: the re-pin expectation 6 mismatches its
	// pinned 7 (another append landed in between).
	a := &fakeWorker{name: "a", domain: "dom", versions: []uint64{5, 7}}
	b := &fakeWorker{name: "b", domain: "dom", versions: []uint64{6, 6}}
	c, err := New(d, []Worker{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.Exec(context.Background(), protoSQL)
	var inc *InconsistentError
	if !errors.As(err, &inc) {
		t.Fatalf("err = %v, want *InconsistentError", err)
	}
	if inc.Fact != "fact" {
		t.Fatalf("inconsistent error names fact %q", inc.Fact)
	}
}

// TestCoordinatorDomainsIndependent: workers of different domains may pin
// different version numbers without conflict (each remote process numbers
// its own data).
func TestCoordinatorDomainsIndependent(t *testing.T) {
	d := protoDB(t)
	a := &fakeWorker{name: "a", domain: "proc1", versions: []uint64{5}}
	b := &fakeWorker{name: "b", domain: "proc2", versions: []uint64{9}}
	c, err := New(d, []Worker{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, meta, err := c.Exec(context.Background(), protoSQL)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Repinned {
		t.Fatal("cross-domain versions triggered a spurious re-pin")
	}
}

// TestCoordinatorWorkerErrorNamesShard: a failing worker surfaces as a
// typed error naming the shard.
func TestCoordinatorWorkerErrorNamesShard(t *testing.T) {
	d := protoDB(t)
	a := &fakeWorker{name: "a", domain: "dom", versions: []uint64{5}}
	b := &fakeWorker{name: "b", domain: "dom", err: fmt.Errorf("connection refused")}
	c, err := New(d, []Worker{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.Exec(context.Background(), protoSQL)
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WorkerError", err)
	}
	if we.Worker != "b" || !strings.Contains(err.Error(), "shard b") {
		t.Fatalf("worker error does not name the failing shard: %v", err)
	}
	if st := c.Stats(); st.Failures != 1 {
		t.Fatalf("failures = %d, want 1", st.Failures)
	}
}

// TestCoordinatorRoutesBeforeScatter: a statement the coordinator cannot
// route fails with the routing error before any worker executes it.
func TestCoordinatorRoutesBeforeScatter(t *testing.T) {
	d := protoDB(t)
	a := &fakeWorker{name: "a", domain: "dom", versions: []uint64{5}}
	b := &fakeWorker{name: "b", domain: "dom", versions: []uint64{5}}
	c, err := New(d, []Worker{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.Exec(context.Background(), "SELECT SUM(no_such_col) AS s FROM universal_table")
	if err == nil || !strings.Contains(err.Error(), "no fact table resolves columns") {
		t.Fatalf("err = %v, want the routing error", err)
	}
	if a.calls != 0 || b.calls != 0 {
		t.Fatalf("workers executed an unroutable statement: a %d, b %d calls", a.calls, b.calls)
	}
	if st := c.Stats(); st.Scatters != 0 {
		t.Fatalf("scatters = %d, want 0", st.Scatters)
	}
}

// TestCoordinatorHealth reports per-worker reachability.
func TestCoordinatorHealth(t *testing.T) {
	d := protoDB(t)
	a := &fakeWorker{name: "up", domain: "dom", versions: []uint64{1}}
	b := &fakeWorker{name: "down", domain: "dom", err: fmt.Errorf("unreachable")}
	c, err := New(d, []Worker{a, b}, Options{PingTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := c.Health(context.Background())
	if len(hs) != 2 {
		t.Fatalf("%d health entries", len(hs))
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].Worker < hs[j].Worker })
	if !((hs[0].Worker == "down" && !hs[0].Reachable && hs[0].Err != "") &&
		(hs[1].Worker == "up" && hs[1].Reachable)) {
		t.Fatalf("health = %+v", hs)
	}
}

// TestCoordinatorExplain appends the fan-out line to the plan.
func TestCoordinatorExplain(t *testing.T) {
	d := protoDB(t)
	c, err := New(d, NewLocalWorkers(d, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fact, plan, err := c.Explain(protoSQL)
	if err != nil {
		t.Fatal(err)
	}
	if fact != "fact" {
		t.Fatalf("routed to %q", fact)
	}
	if !strings.Contains(plan, "shards: 3, partials merged: 3") {
		t.Fatalf("plan lacks the fan-out line:\n%s", plan)
	}
}

// TestCoordinatorConcurrentAppends races live ingest against
// scatter-gather queries (run under -race). Every successful execution
// must report one consistent version vector; the only acceptable failure
// is the fail-closed InconsistentError; and no snapshot pin may leak.
func TestCoordinatorConcurrentAppends(t *testing.T) {
	d, fact := starDB(t, 43, 4000, 512)
	c, err := New(d, NewLocalWorkers(d, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stop := make(chan struct{})
	var appendErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := fact.Insert(map[string]any{
				"f_dk": i % 8, "f_ck": i % 50, "f_pk": i % 40,
				"f_quantity": i%50 + 1, "f_discount": i % 11,
				"f_extprice": 100 + i, "f_revenue": 90 + i, "f_supplycost": 50 + i,
				"f_frac": float64(i%4) / 4, "f_tag": []string{"red", "green", "blue"}[i%3],
			}); err != nil {
				appendErr = err
				return
			}
			i++
		}
	}()
	successes := 0
	for i := 0; i < 60; i++ {
		_, meta, err := c.Exec(ctx, protoSQL)
		if err != nil {
			var inc *InconsistentError
			if !errors.As(err, &inc) {
				t.Fatalf("query %d: unexpected failure %v", i, err)
			}
			continue
		}
		successes++
		var v0 uint64
		for _, v := range meta.Versions {
			if v0 == 0 {
				v0 = v
			} else if v != v0 {
				t.Fatalf("query %d merged mixed versions %v", i, meta.Versions)
			}
		}
	}
	close(stop)
	wg.Wait()
	if appendErr != nil {
		t.Fatal(appendErr)
	}
	if successes == 0 {
		t.Fatal("no query succeeded under concurrent appends")
	}
	if pins := fact.Pins(); pins != 0 {
		t.Fatalf("leaked %d pins", pins)
	}
}
