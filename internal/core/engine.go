package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"astore/internal/agg"
	"astore/internal/expr"
	"astore/internal/obs"
	"astore/internal/query"
	"astore/internal/schema"
	"astore/internal/storage"
)

// Engine executes SPJGA queries over the virtual universal table rooted at
// one fact table. It is safe for concurrent use by multiple goroutines,
// also beside writers: every plan is compiled and executed on a pinned View,
// so a query reads one consistent state of the tables.
type Engine struct {
	root  *storage.Table
	graph *schema.Graph
	opt   Options

	// Aggregation arrays are recycled across queries per shape: the array
	// is typically LLC-resident (§4.3) and sparsely touched, so resetting
	// touched cells is far cheaper than re-allocating and re-zeroing.
	arrMu   sync.Mutex
	arrPool map[string][]*agg.ArrayAgg

	// aggCache holds per-(plan, segment) partial aggregates of sealed
	// segments (Options.AggCacheBytes; nil when disabled): a byte-accounted
	// LRU shared by every plan compiled on this engine.
	aggCache *memCache

	// rows is 0, 1, 2, …, at least as long as the longest segment scanned
	// yet, shared read-only by every worker: a morsel's first filter reads
	// its rows [lo, hi) from it, and a FoR chunk's view indexes its gathered
	// values by it. A longer scan replaces it with a longer copy; nothing
	// ever writes it, so a copy an execution holds stays valid.
	rowsMu sync.Mutex
	rows   []int32
}

// rowNumbers returns the engine's shared row numbers 0, 1, …, at least n
// of them.
func (e *Engine) rowNumbers(n int) []int32 {
	e.rowsMu.Lock()
	defer e.rowsMu.Unlock()
	if len(e.rows) < n {
		rows := make([]int32, max(n, 2*len(e.rows)))
		for i := range rows {
			rows[i] = int32(i)
		}
		e.rows = rows
	}
	return e.rows
}

// getArray returns a pooled aggregation array of the given shape, or builds
// a fresh one. key is the shape's pool key (plan.arrKey, computed once per
// plan rather than per worker per execution).
func (e *Engine) getArray(key string, dims []int, kinds []expr.AggKind) (*agg.ArrayAgg, error) {
	e.arrMu.Lock()
	if list := e.arrPool[key]; len(list) > 0 {
		a := list[len(list)-1]
		e.arrPool[key] = list[:len(list)-1]
		e.arrMu.Unlock()
		return a, nil
	}
	e.arrMu.Unlock()
	return agg.NewArrayAgg(dims, kinds)
}

// putArray resets and recycles an aggregation array; it is the release hook
// of every array-form agg.State the engine hands out.
func (e *Engine) putArray(key string, a *agg.ArrayAgg) {
	a.Reset()
	e.arrMu.Lock()
	if len(e.arrPool[key]) < 16 { // bound pool growth per shape
		e.arrPool[key] = append(e.arrPool[key], a)
	}
	e.arrMu.Unlock()
}

// New builds an engine over the star/snowflake schema reachable from root.
func New(root *storage.Table, opt Options) (*Engine, error) {
	g, err := schema.Build(root)
	if err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	return &Engine{
		root:     root,
		graph:    g,
		opt:      opt,
		arrPool:  make(map[string][]*agg.ArrayAgg),
		aggCache: newMemCache(opt.AggCacheBytes), // nil (disabled) when negative
	}, nil
}

// Graph returns the engine's join graph.
func (e *Engine) Graph() *schema.Graph { return e.graph }

// Run plans and executes a query once, uncached, on a view pinned for the
// call. A query that repeats should compile once and Exec under each new
// view instead (the db layer's Prepared statements do).
func (e *Engine) Run(q *query.Query) (*query.Result, error) {
	v := e.Acquire()
	defer v.Release()
	c, err := v.Compile(q)
	if err != nil {
		return nil, err
	}
	return e.Exec(context.Background(), v, c, nil)
}

// execute is the path every scanning entry point takes: scan segs into one
// merged aggregation state, hand it to end (finalize or capture), and give
// its pooled array back. Per-run state is fresh, so a compiled plan can be
// executed concurrently. With a trace on ctx the run is recorded as an
// `execute` span, closed on every return; its stage children are attached
// only for a run that completed.
func (pl *plan) execute(ctx context.Context, segs []storage.SegView, stats *Stats, end func(*agg.State, *runState) error) error {
	rs := &runState{stats: pl.stats}
	rs.stats.LeafNS = pl.leafNS

	tr := obs.TraceFrom(ctx)
	var execSpan obs.SpanID
	var execT0 time.Time
	if tr != nil {
		execT0 = time.Now()
		execSpan = tr.Start(tr.Root(), obs.StageExecute)
		defer tr.End(execSpan)
	}

	total, err := pl.scan(ctx, segs, rs)
	if err != nil {
		return err
	}
	defer total.Release()
	if err := end(total, rs); err != nil {
		return err
	}
	if tr != nil {
		recordExecSpans(tr, execSpan, execT0, &rs.stats)
	}
	if stats != nil {
		*stats = rs.stats
	}
	return nil
}

// exec is single-node execution: the scanned state is finalized in place,
// which makes it the one-shard case of ExecPartial + MergePartials minus
// the snapshot copy.
func (pl *plan) exec(ctx context.Context, segs []storage.SegView, stats *Stats) (*query.Result, error) {
	var res *query.Result
	err := pl.execute(ctx, segs, stats, func(total *agg.State, rs *runState) (err error) {
		res, err = pl.finalize(total, rs)
		return err
	})
	return res, err
}

// recordExecSpans attaches the execution stages to the trace from the
// durations the run already accumulated, laid out back to back from the
// execution's start. The scan and merge durations are the per-phase
// attribution Stats reports (summed across workers, divided by worker
// count), so the stage sum tracks the execution's wall time rather than
// CPU time.
func recordExecSpans(tr *obs.Trace, parent obs.SpanID, t0 time.Time, st *Stats) {
	cursor := t0
	add := func(name string, durNS int64) obs.SpanID {
		id := tr.Add(parent, name, cursor, time.Duration(durNS))
		cursor = cursor.Add(time.Duration(durNS))
		return id
	}
	prune := add(obs.StagePrune, st.PruneNS)
	tr.SetSegments(prune, int(st.SegmentsTotal), int(st.SegmentsPruned))
	cache := add(obs.StageCache, st.CacheNS)
	tr.SetAggCache(cache, st.AggCacheHits, st.AggCacheMisses, st.TailRows)
	add(obs.StageBind, st.BindNS)
	scan := add(obs.StageScan, st.ScanNS)
	tr.SetRows(scan, st.RowsScanned, st.RowsSelected)
	merge := add(obs.StageMerge, st.AggNS)
	tr.SetRows(merge, st.RowsSelected, int64(st.Groups))
}

// TableVersions are one table's structural and data mutation counters as
// observed by a pinned view.
type TableVersions struct {
	Schema uint64
	Data   uint64
}

// View is a pinned, consistent snapshot of every table reachable from the
// engine's root: frozen column arrays (per segment for the root), a join
// graph over the frozen tables, and the per-table versions at pin
// time. While a View is held, writers copy-on-write instead of mutating
// shared arrays, so plans compiled on the View read a stable database
// state. Release must be called on every exit path so the tables' pin
// counts return to zero.
type View struct {
	eng      *Engine
	root     *storage.Table
	rootSegs []storage.SegView
	graph    *schema.Graph // built lazily: only a Compile needs it
	versions map[string]TableVersions
	release  func()
}

// Acquire pins a snapshot of the engine's reachable tables and returns the
// View. The caller must Release it. The view's join graph is built lazily
// on first Compile, so executions that reuse a cached plan pay only the
// snapshot pin and the version stamps.
func (e *Engine) Acquire() *View {
	frozen, release := storage.SnapshotSet(e.graph.Tables())
	versions := make(map[string]TableVersions, len(frozen))
	for live, f := range frozen {
		versions[live.Name] = TableVersions{Schema: f.SchemaVersion(), Data: f.DataVersion()}
	}
	root := frozen[e.root]
	return &View{
		eng:      e,
		root:     root,
		rootSegs: root.SegViews(),
		versions: versions,
		release:  release,
	}
}

// Release unpins the view's snapshots. It is idempotent.
func (v *View) Release() {
	if v.release != nil {
		v.release()
		v.release = nil
	}
}

// Versions returns the per-table mutation counters observed at pin time.
func (v *View) Versions() map[string]TableVersions { return v.versions }

// RootSegments returns the pinned segment views of the view's root table.
func (v *View) RootSegments() []storage.SegView { return v.rootSegs }

// Compiled is a fully planned query that can be executed many times, by
// many goroutines concurrently. It captures the dimension-side state
// (predicate vectors, group vectors, evaluator recipes) of the view it was
// compiled against, plus the table versions of that state.
//
// Plan freshness distinguishes structure from data: any SchemaVersion
// change invalidates the plan; DataVersion changes invalidate it only for
// the dimensions, whose arrays the plan captured directly. The root's
// arrays are bound per segment at execution time, so fact appends (and
// deletes) leave the plan valid as long as the zone maps prove every
// segment's values still fall inside the compiled ranges (FK bounds and
// dense group-id ranges).
type Compiled struct {
	pl       *plan
	versions map[string]TableVersions
	rootName string
}

// Compile plans q against the view's frozen tables. A View is used by one
// goroutine (the executing query), so the lazy graph build is unsynchronized.
func (v *View) Compile(q *query.Query) (*Compiled, error) {
	if v.graph == nil {
		g, err := schema.Build(v.root)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot schema: %w", err)
		}
		v.graph = g
	}
	pl, err := v.eng.planOn(q, v)
	if err != nil {
		return nil, err
	}
	return &Compiled{pl: pl, versions: v.versions, rootName: v.root.Name}, nil
}

// FreshIn reports whether the compiled plan is still valid for execution
// under the given view. Schema changes always invalidate; data changes
// invalidate dimensions (whose arrays the plan captured), while the root
// stays fresh across appends, deletes, and copy-on-write updates as long as
// zone maps prove every segment's values remain inside the plan's compiled
// ranges.
func (c *Compiled) FreshIn(v *View) bool {
	if len(c.versions) != len(v.versions) {
		return false
	}
	for name, ver := range c.versions {
		got, ok := v.versions[name]
		if !ok || got.Schema != ver.Schema {
			return false
		}
		// The root's data freshness is established by rootCovered below.
		if name != c.rootName && got.Data != ver.Data {
			return false
		}
	}
	return c.pl.rootCovered(v.rootSegs)
}

// Exec executes a compiled plan against the view's pinned root segments.
// The caller is responsible for holding a View in which the plan is fresh
// (FreshIn) for the duration of the call; ctx cancellation is honored at
// scan-batch boundaries.
func (e *Engine) Exec(ctx context.Context, v *View, c *Compiled, stats *Stats) (*query.Result, error) {
	return c.pl.exec(ctx, v.rootSegs, stats)
}
