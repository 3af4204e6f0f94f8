// Package obs is the dependency-free observability layer: per-query span
// traces, a Prometheus-text metrics registry with log-bucketed latency
// histograms, a structured slow-query log, and request-ID propagation.
//
// Everything in this package is safe for concurrent use and allocates
// sparingly: a disabled trace is a nil pointer test, histogram observation
// is a handful of atomic adds, and the registry only materialises strings
// at scrape time.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Canonical stage names recorded by the executor and rendered by Explain,
// EXPLAIN ANALYZE, and the "trace": true HTTP mode. Keeping them in one
// place is what keeps plan-only and timed output consistent.
const (
	StageParse     = "parse"      // SQL text -> AST -> logical query
	StagePlanCache = "plan_cache" // compiled-plan lookup keyed by (fact, sig)
	StagePin       = "pin"        // snapshot acquisition across the star schema
	StagePrune     = "prune"      // zone-map tests during segment admission
	StageCache     = "cache"      // per-segment aggregate cache lookups
	StageBind      = "bind"       // binding plan recipes to admitted segments
	StageScan      = "scan"       // morsel-parallel scan-and-filter
	StageMerge     = "merge"      // aggregate merge / group extraction
	StageExecute   = "execute"    // parent of prune/bind/scan/merge
	StageScatter   = "scatter"    // coordinator fan-out to shard workers
	StageRoot      = "query"      // root span
)

// StageNames lists the per-query stages in execution order. Explain prints
// this list so the plan-only rendering names the same stages a timed trace
// reports.
func StageNames() []string {
	return []string{StageParse, StagePlanCache, StagePin, StagePrune, StageCache, StageBind, StageScan, StageMerge}
}

// SpanID indexes a span inside its Trace. The zero ID is the root span.
type SpanID int32

// NoSpan is the parent of the root span.
const NoSpan SpanID = -1

type spanRec struct {
	name    string
	parent  SpanID
	startNS int64 // offset from trace start
	durNS   int64 // -1 while the span is open
	rowsIn  int64
	rowsOut int64
	hasRows bool
	segs    int
	pruned  int
	hasSegs bool
	hit     int8 // -1 unset, 0 miss, 1 hit (plan-cache spans)

	aggHits   int
	aggMisses int
	tailRows  int64
	hasAgg    bool

	shards    int
	merged    int
	hasFanout bool
}

// Trace is a per-query span recorder. It is cheap enough to create per
// request and safe for concurrent use (the executor records stages from the
// coordinating goroutine, but End/attr setters may race with Tree snapshots
// taken by another goroutine).
type Trace struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

// NewTrace starts a trace whose root span ("query") opens immediately.
func NewTrace() *Trace {
	t := &Trace{t0: time.Now()}
	t.spans = make([]spanRec, 1, 16)
	t.spans[0] = spanRec{name: StageRoot, parent: NoSpan, durNS: -1, hit: -1}
	return t
}

// Root returns the root span ID.
func (t *Trace) Root() SpanID { return 0 }

// Start opens a child span under parent and returns its ID.
func (t *Trace) Start(parent SpanID, name string) SpanID {
	now := time.Now()
	t.mu.Lock()
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, spanRec{
		name:    name,
		parent:  parent,
		startNS: now.Sub(t.t0).Nanoseconds(),
		durNS:   -1,
		hit:     -1,
	})
	t.mu.Unlock()
	return id
}

// End closes an open span. Durations are clamped to >= 1ns so a recorded
// stage is always distinguishable from an absent one.
func (t *Trace) End(id SpanID) {
	now := time.Now()
	t.mu.Lock()
	if int(id) < len(t.spans) && t.spans[id].durNS < 0 {
		t.spans[id].durNS = clampNS(now.Sub(t.t0).Nanoseconds() - t.spans[id].startNS)
	}
	t.mu.Unlock()
}

// Add records an already-measured span from its absolute start time and
// duration. It is how the executor attaches stage timings it accumulated
// without per-stage clock reads on the hot path.
func (t *Trace) Add(parent SpanID, name string, start time.Time, dur time.Duration) SpanID {
	t.mu.Lock()
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, spanRec{
		name:    name,
		parent:  parent,
		startNS: start.Sub(t.t0).Nanoseconds(),
		durNS:   clampNS(dur.Nanoseconds()),
		hit:     -1,
	})
	t.mu.Unlock()
	return id
}

// SetRows attaches rows-in/rows-out to a span.
func (t *Trace) SetRows(id SpanID, in, out int64) {
	t.mu.Lock()
	if int(id) < len(t.spans) {
		t.spans[id].rowsIn, t.spans[id].rowsOut, t.spans[id].hasRows = in, out, true
	}
	t.mu.Unlock()
}

// SetSegments attaches segment-admission counts to a span.
func (t *Trace) SetSegments(id SpanID, total, pruned int) {
	t.mu.Lock()
	if int(id) < len(t.spans) {
		t.spans[id].segs, t.spans[id].pruned, t.spans[id].hasSegs = total, pruned, true
	}
	t.mu.Unlock()
}

// SetAggCache attaches segment aggregate cache counts to a span: segments
// served from / installed into the cache, and the live tail row count.
func (t *Trace) SetAggCache(id SpanID, hits, misses int, tailRows int64) {
	t.mu.Lock()
	if int(id) < len(t.spans) {
		s := &t.spans[id]
		s.aggHits, s.aggMisses, s.tailRows, s.hasAgg = hits, misses, tailRows, true
	}
	t.mu.Unlock()
}

// SetFanout attaches scatter-gather shape to a span: the number of shard
// workers scattered to and the number of partial snapshots merged back.
func (t *Trace) SetFanout(id SpanID, shards, merged int) {
	t.mu.Lock()
	if int(id) < len(t.spans) {
		s := &t.spans[id]
		s.shards, s.merged, s.hasFanout = shards, merged, true
	}
	t.mu.Unlock()
}

// SetHit marks a cache-lookup span as hit or miss.
func (t *Trace) SetHit(id SpanID, hit bool) {
	t.mu.Lock()
	if int(id) < len(t.spans) {
		if hit {
			t.spans[id].hit = 1
		} else {
			t.spans[id].hit = 0
		}
	}
	t.mu.Unlock()
}

// Finish closes the root span.
func (t *Trace) Finish() { t.End(0) }

func clampNS(ns int64) int64 {
	if ns < 1 {
		return 1
	}
	return ns
}

// Span is an exported snapshot node of the trace tree, shaped for JSON
// responses ("trace": true) and for text rendering (EXPLAIN ANALYZE).
type Span struct {
	Name           string  `json:"name"`
	StartUS        float64 `json:"start_us"`
	DurUS          float64 `json:"dur_us"`
	RowsIn         int64   `json:"rows_in,omitempty"`
	RowsOut        int64   `json:"rows_out,omitempty"`
	Segments       int     `json:"segments,omitempty"`
	SegmentsPruned int     `json:"segments_pruned,omitempty"`
	CacheHit       *bool   `json:"cache_hit,omitempty"`
	// AggCache carries the segment aggregate cache counts of a "cache"
	// stage span: present (possibly all-zero) whenever the executor
	// consulted the cache path, absent on spans that never touch it.
	AggCache *AggCacheInfo `json:"agg_cache,omitempty"`
	// Shards/PartialsMerged carry the fan-out shape of a "scatter" span on
	// a sharded coordinator.
	Shards         int     `json:"shards,omitempty"`
	PartialsMerged int     `json:"partials_merged,omitempty"`
	Children       []*Span `json:"children,omitempty"`
}

// AggCacheInfo summarizes one execution's segment aggregate cache usage.
type AggCacheInfo struct {
	Hits     int   `json:"hits"`
	Misses   int   `json:"misses"`
	TailRows int64 `json:"tail_rows"`
}

// Tree snapshots the trace as a nested span tree rooted at "query". Open
// spans report the duration observed so far.
func (t *Trace) Tree() *Span {
	now := time.Now()
	t.mu.Lock()
	recs := make([]spanRec, len(t.spans))
	copy(recs, t.spans)
	t0 := t.t0
	t.mu.Unlock()

	nodes := make([]*Span, len(recs))
	for i, r := range recs {
		dur := r.durNS
		if dur < 0 {
			dur = clampNS(now.Sub(t0).Nanoseconds() - r.startNS)
		}
		n := &Span{
			Name:    r.name,
			StartUS: float64(r.startNS) / 1e3,
			DurUS:   float64(dur) / 1e3,
		}
		if r.hasRows {
			n.RowsIn, n.RowsOut = r.rowsIn, r.rowsOut
		}
		if r.hasSegs {
			n.Segments, n.SegmentsPruned = r.segs, r.pruned
		}
		if r.hit >= 0 {
			hit := r.hit == 1
			n.CacheHit = &hit
		}
		if r.hasAgg {
			n.AggCache = &AggCacheInfo{Hits: r.aggHits, Misses: r.aggMisses, TailRows: r.tailRows}
		}
		if r.hasFanout {
			n.Shards, n.PartialsMerged = r.shards, r.merged
		}
		nodes[i] = n
	}
	for i, r := range recs {
		if r.parent >= 0 && int(r.parent) < len(nodes) {
			p := nodes[r.parent]
			p.Children = append(p.Children, nodes[i])
		}
	}
	return nodes[0]
}

// MarshalJSON renders the trace as its span tree.
func (t *Trace) MarshalJSON() ([]byte, error) { return json.Marshal(t.Tree()) }

// Format renders the trace as indented text for the interactive shell:
//
//	query                          1234.5us
//	  parse                          210.0us
//	  execute                        980.2us
//	    scan                         800.1us  rows 60175 -> 441
func (t *Trace) Format() string {
	var b strings.Builder
	formatSpan(&b, t.Tree(), 0)
	return b.String()
}

func formatSpan(b *strings.Builder, s *Span, depth int) {
	fmt.Fprintf(b, "%s%-*s %10.1fus", strings.Repeat("  ", depth), 24-2*depth, s.Name, s.DurUS)
	if s.RowsIn != 0 || s.RowsOut != 0 {
		fmt.Fprintf(b, "  rows %d -> %d", s.RowsIn, s.RowsOut)
	}
	if s.Segments != 0 {
		fmt.Fprintf(b, "  segments %d/%d admitted", s.Segments-s.SegmentsPruned, s.Segments)
	}
	if s.CacheHit != nil {
		if *s.CacheHit {
			b.WriteString("  hit")
		} else {
			b.WriteString("  miss")
		}
	}
	if s.AggCache != nil {
		fmt.Fprintf(b, "  segment agg cache: hits %d / misses %d / tail rows %d",
			s.AggCache.Hits, s.AggCache.Misses, s.AggCache.TailRows)
	}
	if s.Shards != 0 {
		fmt.Fprintf(b, "  shards %d, partials merged %d", s.Shards, s.PartialsMerged)
	}
	b.WriteByte('\n')
	kids := append([]*Span(nil), s.Children...)
	sort.SliceStable(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
	for _, c := range kids {
		formatSpan(b, c, depth+1)
	}
}

type traceCtxKey struct{}

// WithTrace attaches a trace to ctx; the executor picks it up and records
// stage spans into it.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the trace attached to ctx, or nil. A nil receiver is
// the disabled state: callers test for nil before recording.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}
