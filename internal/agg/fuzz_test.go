package agg_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"astore/internal/agg"
	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/db"
	"astore/internal/query"
)

// ssbPartialWire executes q over a small SSB catalog as one shard and
// returns the captured partial in wire form, with the statement it was
// captured from. wantForm is the form byte the seed must have (0 array,
// 1 hash), so a planner change cannot quietly leave one decoder branch
// unseeded.
func ssbPartialWire(f *testing.F, q *query.Query, opt core.Options, wantForm byte) ([]byte, *db.Prepared) {
	f.Helper()
	data := ssb.Generate(ssb.Config{SF: 0.002, Seed: 1})
	d, err := db.Open(data.DB, opt)
	if err != nil {
		f.Fatal(err)
	}
	p, err := d.Prepare(q)
	if err != nil {
		f.Fatal(err)
	}
	res, err := p.ExecPartial(context.Background(), db.PartialRequest{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	wire, err := res.Partial.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	if wire[5] != wantForm {
		f.Fatalf("%s: partial has wire form %d, want %d", q.Name, wire[5], wantForm)
	}
	return wire, p
}

// FuzzUnmarshalPartial: whatever bytes a worker sends, the coordinator's
// decoder answers with an error or with a partial that marshals back to
// exactly those bytes; it never panics, and it never allocates more than a
// constant multiple of what it was given (a cell count is attacker-chosen
// and sizes three slices). A partial that decodes is then merged and
// finalized by both seed statements, as a coordinator would, which must
// answer with an error or a result, never a panic.
func FuzzUnmarshalPartial(f *testing.F) {
	w11, p11 := ssbPartialWire(f, ssb.Q1_1(), core.Options{}, 0)
	w31, p31 := ssbPartialWire(f, ssb.Q3_1(), core.Options{Variant: core.ColWisePF}, 1)
	for _, wire := range [][]byte{w11, w31} {
		f.Add(wire)
		for _, cut := range []int{len(wire) - 1, len(wire) / 2, 12, 7, 3} {
			if cut >= 0 && cut < len(wire) {
				f.Add(wire[:cut])
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Slack covers the error value and the kinds slice; 8x covers a
		// hash partial's string headers next to its counts and values.
		// TotalAlloc is process-wide and the fuzz worker's own goroutines
		// allocate now and then, so one clean attempt out of three clears
		// the input: the decoder is deterministic, a real overshoot is not
		// sporadic.
		bound := uint64(8*len(data) + 4096)
		var p *agg.Partial
		var err error
		for attempt := 1; ; attempt++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p, err = agg.UnmarshalPartial(data)
			runtime.ReadMemStats(&after)
			grew := after.TotalAlloc - before.TotalAlloc
			if grew <= bound {
				break
			}
			if attempt == 3 {
				t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(data), grew, bound)
			}
		}
		if err != nil {
			return
		}
		again, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded partial does not marshal: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-marshal differs from input:\n in  %x\n out %x", data, again)
		}
		for _, ps := range []*db.Prepared{p11, p31} {
			_, _ = ps.MergePartials(context.Background(), []*agg.Partial{p}, nil) // an error is an answer
		}
	})
}
