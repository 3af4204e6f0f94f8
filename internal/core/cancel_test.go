package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"astore/internal/agg"
	"astore/internal/expr"
	"astore/internal/query"
)

// flipCtx is a context whose Err() starts reporting cancellation after a
// fixed number of calls, which places the cancellation at every checkpoint
// of a scan in turn, deterministically.
type flipCtx struct {
	context.Context
	done   chan struct{} // never closed; non-nil so checkpoints are live
	calls  atomic.Int64
	flipAt int64 // Err() reports Canceled from call flipAt+1 on; negative: never
}

func newFlipCtx(flipAt int64) *flipCtx {
	return &flipCtx{Context: context.Background(), done: make(chan struct{}), flipAt: flipAt}
}

func (c *flipCtx) Done() <-chan struct{} { return c.done }

func (c *flipCtx) Err() error {
	if n := c.calls.Add(1); c.flipAt >= 0 && n > c.flipAt {
		return context.Canceled
	}
	return nil
}

// poolLen counts the aggregation arrays resting in the engine's pool.
func poolLen(eng *Engine) int {
	eng.arrMu.Lock()
	defer eng.arrMu.Unlock()
	n := 0
	for _, list := range eng.arrPool {
		n += len(list)
	}
	return n
}

// topUpPool fills the (single) pooled shape up to n arrays, more than any
// run holds at once, so that every array a run takes comes out of the pool
// and a leaked one shows as a shorter pool.
func topUpPool(t *testing.T, eng *Engine, c *Compiled, n int) {
	t.Helper()
	eng.arrMu.Lock()
	defer eng.arrMu.Unlock()
	if len(eng.arrPool) != 1 {
		t.Fatalf("warm-up left %d pooled shapes, want 1", len(eng.arrPool))
	}
	for key, list := range eng.arrPool {
		for len(list) < n {
			a, err := agg.NewArrayAgg(c.pl.dimCards, c.pl.aggKinds)
			if err != nil {
				t.Fatal(err)
			}
			list = append(list, a)
		}
		eng.arrPool[key] = list
	}
}

// TestCancelledScanNeverReturnsShortResult cancels a scan at every one of
// its checkpoints, through both scanning entry points, serial and parallel.
// The outcome is ctx.Err() or the exact full result, never a truncated one
// (a serial scan used to finalize the state of an abandoned last unit and
// return it with a nil error); a failed run installed nothing for the unit
// it abandoned; and every pooled array is back.
func TestCancelledScanNeverReturnsShortResult(t *testing.T) {
	fixtures := []struct {
		name     string
		nFact    int
		seqBelow int64 // predicate f_seq < seqBelow
		sealed   int   // sealed segments the predicate admits
		tailLive bool  // whether the tail survives zone-map pruning
	}{
		{"one-sealed-segment-tail-pruned", 1024 + 100, 1024, 1, false},
		{"four-sealed-segments-tail-pruned", 4096 + 100, 4096, 4, false},
		{"four-sealed-segments-live-tail", 4096 + 300, 4200, 4, true},
	}
	entries := []struct {
		name string
		run  func(ctx context.Context, eng *Engine, v *View, c *Compiled) (*query.Result, error)
	}{
		{"Exec", func(ctx context.Context, eng *Engine, v *View, c *Compiled) (*query.Result, error) {
			return eng.Exec(ctx, v, c, nil)
		}},
		{"ExecPartial", func(ctx context.Context, eng *Engine, v *View, c *Compiled) (*query.Result, error) {
			part, err := eng.ExecPartial(ctx, v, c, v.RootSegments(), nil)
			if err != nil {
				return nil, err
			}
			return eng.MergePartials(c, []*agg.Partial{part}, nil)
		}},
	}
	for _, fx := range fixtures {
		for _, workers := range []int{0, 2} {
			for _, entry := range entries {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", fx.name, workers, entry.name), func(t *testing.T) {
					fact := clusteredFact(t, fx.nFact, 8)
					if err := fact.SetSegmentTarget(1024); err != nil {
						t.Fatal(err)
					}
					eng, err := New(fact, Options{Workers: workers, BatchRows: 128})
					if err != nil {
						t.Fatal(err)
					}
					q := query.New("q").
						Where(expr.IntLt("f_seq", fx.seqBelow)).
						GroupByCols("d_year").
						Agg(expr.CountStar("n"), expr.SumOf(expr.C("f_val"), "v")).
						OrderAsc("d_year")
					v := eng.Acquire()
					defer v.Release()
					// Every run compiles its own plan: plan instances share the
					// array pool but not aggregate-cache entries, so each run
					// starts from a cold cache.
					compile := func() *Compiled {
						c, err := v.Compile(q)
						if err != nil {
							t.Fatal(err)
						}
						return c
					}
					c := compile()
					want, err := eng.Exec(context.Background(), v, c, nil)
					if err != nil {
						t.Fatal(err)
					}
					topUpPool(t, eng, c, 8)
					pooled := poolLen(eng)

					counting := newFlipCtx(-1)
					got, err := entry.run(counting, eng, v, compile())
					if err != nil {
						t.Fatal(err)
					}
					if err := query.Diff(want, got, 0); err != nil {
						t.Fatalf("uncancelled run: %v", err)
					}
					checkpoints := counting.calls.Load()
					if checkpoints < int64(fx.sealed) {
						t.Fatalf("full run consulted ctx %d times over %d units", checkpoints, fx.sealed)
					}

					for k := int64(0); k <= checkpoints; k++ {
						c := compile()
						got, err := entry.run(newFlipCtx(k), eng, v, c)
						switch {
						case errors.Is(err, context.Canceled):
						case err != nil:
							t.Fatalf("flip after %d: %v", k, err)
						default:
							if err := query.Diff(want, got, 0); err != nil {
								t.Fatalf("flip after %d: short result returned as success: %v", k, err)
							}
						}
						if n := poolLen(eng); n != pooled {
							t.Fatalf("flip after %d: pool holds %d arrays, %d before the run", k, n, pooled)
						}
						if err == nil {
							continue
						}
						var st Stats
						again, err := eng.Exec(context.Background(), v, c, &st)
						if err != nil {
							t.Fatal(err)
						}
						if err := query.Diff(want, again, 0); err != nil {
							t.Fatalf("flip after %d: run after the cancelled one: %v", k, err)
						}
						if st.AggCacheHits+st.AggCacheMisses != fx.sealed {
							t.Fatalf("flip after %d: next run saw %d hits + %d misses over %d sealed segments",
								k, st.AggCacheHits, st.AggCacheMisses, fx.sealed)
						}
						if !fx.tailLive && st.AggCacheMisses == 0 {
							t.Fatalf("flip after %d: the abandoned segment was installed in the aggregate cache", k)
						}
					}
				})
			}
		}
	}
}
