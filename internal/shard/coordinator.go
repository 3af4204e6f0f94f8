package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"astore/internal/agg"
	"astore/internal/core"
	"astore/internal/db"
	"astore/internal/obs"
	"astore/internal/query"
)

// maxFanOut bounds concurrently executing shard requests per query.
const maxFanOut = 8

// Options tunes a Coordinator. The zero value is usable.
type Options struct {
	// ExecTimeout bounds one worker execution (on top of the query's own
	// context). Default: none beyond the caller's context.
	ExecTimeout time.Duration
	// PingTimeout bounds one health probe. Default 2s.
	PingTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.PingTimeout <= 0 {
		o.PingTimeout = 2 * time.Second
	}
	return o
}

// Stats are the coordinator's cumulative scatter-gather counters, each
// declared once: the json tag is its key in the "shard" block of /v1/stats,
// the metric and help tags its /metrics family.
type Stats struct {
	Workers        int   `json:"workers"`
	Scatters       int64 `json:"scatters" metric:"astore_shard_scatters_total,counter" help:"Distributed executions fanned out by the shard coordinator."`
	Repins         int64 `json:"repins" metric:"astore_shard_repins_total,counter" help:"Scatters that needed the bounded re-pin retry for a consistent snapshot."`
	Failures       int64 `json:"failures" metric:"astore_shard_failures_total,counter" help:"Shard worker executions that failed (after transport retries)."`
	PartialsMerged int64 `json:"partials_merged" metric:"astore_shard_partials_merged_total,counter" help:"Partial aggregate snapshots merged by the coordinator."`
}

// Meta describes one distributed execution: the fan-out shape, whether the
// bounded re-pin retry fired, and the consistent (worker → data_version)
// vector the query executed under.
type Meta struct {
	Fact           string
	Shards         int
	PartialsMerged int
	Repinned       bool
	Versions       map[string]uint64
	Stats          core.Stats
}

// Coordinator fans compiled queries out to shard workers and merges the
// returned partial-aggregate snapshots. The embedded DB supplies parsing,
// routing, plan compilation, and the merge-side dimension decode; with
// LocalWorkers it is also the data the workers scan.
type Coordinator struct {
	d       *db.DB
	workers []Worker
	opt     Options
	sem     chan struct{}

	scatters atomic.Int64
	repins   atomic.Int64
	failures atomic.Int64
	merged   atomic.Int64

	execDur *obs.HistogramVec // astore_shard_exec_seconds{worker}, nil until RegisterMetrics
	failVec *obs.CounterVec   // astore_shard_worker_failures_total{worker}
}

// New builds a coordinator over the given workers.
func New(d *db.DB, workers []Worker, opt Options) (*Coordinator, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one worker")
	}
	opt = opt.withDefaults()
	return &Coordinator{
		d:       d,
		workers: workers,
		opt:     opt,
		sem:     make(chan struct{}, maxFanOut),
	}, nil
}

// DB returns the coordinator's database handle.
func (c *Coordinator) DB() *db.DB { return c.d }

// AppendTarget returns the tail-owner worker's base URL when that worker
// is remote — the serving layer forwards ingest there. In-process workers
// share the coordinator's DB, so local appends already land on the tail
// owner and AppendTarget reports none.
func (c *Coordinator) AppendTarget() (string, bool) {
	if hw, ok := c.workers[db.TailOwnerShard].(*HTTPWorker); ok {
		return hw.BaseURL(), true
	}
	return "", false
}

// Workers returns the worker names in shard order.
func (c *Coordinator) Workers() []string {
	names := make([]string, len(c.workers))
	for i, w := range c.workers {
		names[i] = w.Name()
	}
	return names
}

// Stats returns the cumulative scatter-gather counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Workers:        len(c.workers),
		Scatters:       c.scatters.Load(),
		Repins:         c.repins.Load(),
		Failures:       c.failures.Load(),
		PartialsMerged: c.merged.Load(),
	}
}

// RegisterMetrics registers the coordinator's per-worker instruments on a
// registry (idempotent per registry; call once from the serving layer). The
// Stats counters reach /metrics through the serving layer's snapshot.
func (c *Coordinator) RegisterMetrics(r *obs.Registry) {
	c.execDur = r.HistogramVec("astore_shard_exec_seconds",
		"Wall time of shard worker executions by worker.", "worker", obs.DefaultLatencyBuckets())
	c.failVec = r.CounterVec("astore_shard_worker_failures_total",
		"Failed shard worker executions by worker.", "worker")
}

// Exec runs one SQL statement scatter-gather: every worker pins its own
// snapshot, executes its segment slice, and returns a partial snapshot;
// the gather validates that all workers of one version domain pinned the
// same data version, re-pinning at most once before failing closed with
// InconsistentError. The merged result is identical to a single-node
// execution over the union of the shards' data.
func (c *Coordinator) Exec(ctx context.Context, sqlText string) (*query.Result, *Meta, error) {
	// Prepare first: a statement the coordinator cannot route or compile
	// never reaches a worker.
	p, err := c.d.PrepareSQL(sqlText)
	if err != nil {
		return nil, nil, err
	}
	return c.ExecPrepared(ctx, p, sqlText)
}

// ExecPrepared is Exec for a statement already prepared on the
// coordinator's DB: sqlText goes to the workers, and the merge runs on p.
func (c *Coordinator) ExecPrepared(ctx context.Context, p *db.Prepared, sqlText string) (*query.Result, *Meta, error) {
	tr := obs.TraceFrom(ctx)
	var span obs.SpanID
	if tr != nil {
		span = tr.Start(tr.Root(), obs.StageScatter)
		defer tr.End(span)
	}
	c.scatters.Add(1)

	results, err := c.scatter(ctx, sqlText, nil)
	if err != nil {
		return nil, nil, err
	}
	repinned := false
	if !consistent(results) {
		// One bounded re-pin pass: every worker must land exactly on its
		// domain's newest observed version. A worker that pins anything
		// else (an append raced the retry) reports a mismatch, which
		// fails the query closed — never a mixed-version merge.
		repinned = true
		c.repins.Add(1)
		first := results
		results, err = c.scatter(ctx, sqlText, expectations(first))
		if err != nil || !consistent(results) {
			var vm *db.VersionMismatchError
			if err == nil || errors.As(err, &vm) {
				vec := c.versionVector(results)
				if len(vec) == 0 {
					vec = c.versionVector(first)
				}
				return nil, nil, &InconsistentError{Fact: factOf(first), Versions: vec}
			}
			return nil, nil, err
		}
	}

	parts := make([]*agg.Partial, len(results))
	var total core.Stats
	merged := 0
	for i, r := range results {
		parts[i] = r.Partial
		if r.Partial != nil {
			merged++
		}
		total.Add(&r.Stats)
	}
	// The shards' counters add up to exactly the single-node numbers because
	// their slices partition the pinned view (time counters add as per-shard
	// work, not wall time); the merge contributes its time and the per-plan
	// facts.
	var mstats core.Stats
	res, err := p.MergePartials(ctx, parts, &mstats)
	if err != nil {
		return nil, nil, err
	}
	total.AggNS += mstats.AggNS
	total.Groups = mstats.Groups
	total.UsedArrayAgg = mstats.UsedArrayAgg
	c.merged.Add(int64(merged))
	c.d.AddExecStats(&total)
	if tr != nil {
		tr.SetFanout(span, len(c.workers), merged)
	}
	return res, &Meta{
		Fact:           p.Fact(),
		Shards:         len(c.workers),
		PartialsMerged: merged,
		Repinned:       repinned,
		Versions:       c.versionVector(results),
		Stats:          total,
	}, nil
}

// scatter fans the statement out to every worker (bounded by maxFanOut)
// and waits for all replies. expect, when non-nil, carries the per-worker
// pinned-version requirement of the re-pin pass. The first failure is
// returned, wrapped with the shard's name; the remaining workers still run
// to completion so no goroutine outlives the call.
func (c *Coordinator) scatter(ctx context.Context, sqlText string, expect []uint64) ([]*ExecResult, error) {
	results := make([]*ExecResult, len(c.workers))
	errs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	for i, w := range c.workers {
		wg.Add(1)
		go func(i int, w Worker) {
			defer wg.Done()
			select {
			case c.sem <- struct{}{}:
				defer func() { <-c.sem }()
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			wctx := ctx
			if c.opt.ExecTimeout > 0 {
				var cancel context.CancelFunc
				wctx, cancel = context.WithTimeout(ctx, c.opt.ExecTimeout)
				defer cancel()
			}
			req := ExecRequest{SQL: sqlText}
			if expect != nil {
				req.ExpectDataVersion = expect[i]
			}
			t0 := time.Now()
			res, err := w.Exec(wctx, req)
			if c.execDur != nil {
				c.execDur.With(w.Name()).Observe(time.Since(t0).Seconds())
			}
			if err != nil {
				c.failures.Add(1)
				if c.failVec != nil {
					c.failVec.With(w.Name()).Inc()
				}
				errs[i] = err
				return
			}
			results[i] = res
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, &WorkerError{Worker: c.workers[i].Name(), Err: err}
		}
	}
	return results, nil
}

// consistent reports whether all workers of each version domain pinned the
// same (schema, data) versions of the same fact. Versions from different
// domains (distinct server processes) are incomparable and never conflict.
func consistent(results []*ExecResult) bool {
	type vers struct{ schema, data uint64 }
	fact := ""
	byDomain := make(map[string]vers, 2)
	for _, r := range results {
		if fact == "" {
			fact = r.Fact
		} else if r.Fact != fact {
			return false
		}
		v := vers{r.SchemaVersion, r.DataVersion}
		if prev, ok := byDomain[r.Domain]; ok && prev != v {
			return false
		}
		byDomain[r.Domain] = v
	}
	return true
}

// expectations builds the re-pin requirement: every worker must pin its
// domain's newest observed data version.
func expectations(results []*ExecResult) []uint64 {
	maxByDomain := make(map[string]uint64, 2)
	for _, r := range results {
		if r.DataVersion > maxByDomain[r.Domain] {
			maxByDomain[r.Domain] = r.DataVersion
		}
	}
	expect := make([]uint64, len(results))
	for i, r := range results {
		expect[i] = maxByDomain[r.Domain]
	}
	return expect
}

// versionVector snapshots the (worker name → data version) vector; results
// arrive in worker order.
func (c *Coordinator) versionVector(results []*ExecResult) map[string]uint64 {
	out := make(map[string]uint64, len(results))
	for i, r := range results {
		if r != nil && i < len(c.workers) {
			out[c.workers[i].Name()] = r.DataVersion
		}
	}
	return out
}

// factOf returns the fact name the results agree on ("" when empty).
func factOf(results []*ExecResult) string {
	for _, r := range results {
		if r != nil {
			return r.Fact
		}
	}
	return ""
}

// Explain renders the single-node plan for the statement plus the
// coordinator's fan-out line. Returns the routed fact and the plan text.
func (c *Coordinator) Explain(sqlText string) (string, string, error) {
	p, err := c.d.PrepareSQL(sqlText)
	if err != nil {
		return "", "", err
	}
	plan, err := p.Explain()
	if err != nil {
		return "", "", err
	}
	plan += fmt.Sprintf("shards: %d, partials merged: %d\n", len(c.workers), len(c.workers))
	return p.Fact(), plan, nil
}

// WorkerHealth is one worker's reachability probe result.
type WorkerHealth struct {
	Worker    string  `json:"worker"`
	Reachable bool    `json:"reachable"`
	Err       string  `json:"error,omitempty"`
	LatencyMS float64 `json:"latency_ms"`
}

// Health probes every worker concurrently.
func (c *Coordinator) Health(ctx context.Context) []WorkerHealth {
	out := make([]WorkerHealth, len(c.workers))
	var wg sync.WaitGroup
	for i, w := range c.workers {
		wg.Add(1)
		go func(i int, w Worker) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, c.opt.PingTimeout)
			defer cancel()
			t0 := time.Now()
			err := w.Ping(pctx)
			out[i] = WorkerHealth{
				Worker:    w.Name(),
				Reachable: err == nil,
				LatencyMS: float64(time.Since(t0).Microseconds()) / 1e3,
			}
			if err != nil {
				out[i].Err = err.Error()
			}
		}(i, w)
	}
	wg.Wait()
	return out
}
