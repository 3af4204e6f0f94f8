package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"astore/internal/obs"
	"astore/internal/storage"
)

// check is one assertion that a workload did what its description claims.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// workloadResult is everything one workload run produced.
type workloadResult struct {
	EndToEnd  map[string]float64
	PerLayer  map[string]float64
	Samples   map[string]int
	Attempted int
	Failed    int
	Checks    []check
	Failures  []string // the first few failed operations
	spans     []spanRecord
}

// ok reports whether every operation succeeded, every verified answer
// matched, and every self-check held.
func (r *workloadResult) ok() bool {
	if r.Failed > 0 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *workloadResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *workloadResult) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// runPlan says how much of a workload to run. The windows are shares of the
// flow's measured window.
type runPlan struct {
	setups   int     // times the servers are brought up; setup_s is the median
	untraced float64 // the tracing-off window (end-to-end metrics)
	traced   float64 // the traced window (per-layer metrics); 0 skips it
}

// plainPruneCeiling separates the two ad-hoc workloads' zone-map pruning:
// append order prunes nearly nothing, clustering by lo_orderdate prunes the
// date-restricted statements. Checking each against the same constant lets a
// run of one workload assert "encoded prunes more than plain".
const plainPruneCeiling = 0.10

// runWorkload brings the flow's servers up, drives its traffic, stops the
// servers, and then verifies answers against the oracle.
func runWorkload(ctx context.Context, cfg config, name string, seed int64, plan runPlan) (*workloadResult, error) {
	f, err := buildFlow(cfg, name, seed)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{
		EndToEnd: make(map[string]float64), PerLayer: make(map[string]float64),
		Samples: make(map[string]int),
	}

	var c *cluster
	var setups []float64
	for i := 0; i < plan.setups; i++ {
		if c != nil {
			c.stop()
		}
		t0 := time.Now()
		if c, err = launch(ctx, cfg.serveBin, f); err != nil {
			return nil, err
		}
		if err = prime(c, f); err != nil {
			c.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.stop()
	res.EndToEnd["setup_s"] = median(setups)
	res.Samples["setups"] = len(setups)

	untraced, err := drive(ctx, c, f, driveOpts{
		warmup:   f.warmup,
		duration: time.Duration(plan.untraced * float64(f.duration)),
	})
	if err != nil {
		return nil, err
	}
	windows := []*window{untraced}
	var traced *window
	if plan.traced > 0 {
		traced, err = drive(ctx, c, f, driveOpts{
			traced:       true,
			stmtOffset:   len(untraced.reads) + f.clients,
			appendOffset: len(untraced.appends),
			warmup:       f.warmup,
			duration:     time.Duration(plan.traced * float64(f.duration)),
		})
		if err != nil {
			return nil, err
		}
		windows = append(windows, traced)
	}

	if f.shardWorkers > 0 {
		_, n, err := c.health(c.front)
		if err != nil {
			return nil, err
		}
		res.check("shards_reachable", n == f.shardWorkers, "%d of %d workers reachable", n, f.shardWorkers)
	}
	var final *finalAnswers
	if f.appendEvery > 0 {
		if final, err = collectFinal(c, f); err != nil {
			return nil, err
		}
	}
	c.stop()

	// The clock has stopped and the servers are gone: everything below is
	// arithmetic on what was recorded.
	endToEndMetrics(res, untraced)
	if traced != nil {
		res.spans = spanMetrics(res, f, traced)
		res.PerLayer["trace_overhead_ratio"] = latencyP50(traced) / latencyP50(untraced)
	}
	for _, w := range windows {
		// The traced window comes second, so its deltas overwrite the
		// tracing-off window's and sit beside the spans they explain.
		m := layerMetrics(w)
		for k, v := range m {
			res.PerLayer[k] = v
		}
		countFailures(res, f, w)
		selfChecks(res, f, w, m)
	}
	verifyAnswers(res, cfg, f, windows, final)
	res.EndToEnd["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	return res, nil
}

// prime sends the flow's priming statements once, in order: the last step of
// set-up, which fills the caches a warm workload relies on.
func prime(c *cluster, f *Flow) error {
	conn := newConn()
	defer conn.CloseIdleConnections()
	for _, s := range f.prime {
		if _, err := postQuery(conn, c.front.url("/v1/query"), s); err != nil {
			return fmt.Errorf("prime: %w", err)
		}
	}
	return nil
}

// okLatenciesMS are the latencies of a window's successful measured reads.
func okLatenciesMS(w *window) []float64 {
	var lat []float64
	for _, s := range w.measuredReads() {
		if s.status == http.StatusOK {
			lat = append(lat, float64(s.end.Sub(s.start))/1e6)
		}
	}
	sort.Float64s(lat)
	return lat
}

func latencyP50(w *window) float64 { return percentile(okLatenciesMS(w), 0.50) }

// endToEndMetrics fills the per-workload end-to-end metrics from the
// tracing-off window.
func endToEndMetrics(res *workloadResult, w *window) {
	lat := okLatenciesMS(w)
	res.Samples["queries"] = len(lat)
	e := res.EndToEnd
	e["qps"] = float64(len(lat)) / w.seconds()
	e["lat_p50_ms"] = percentile(lat, 0.50)
	e["lat_p95_ms"] = percentile(lat, 0.95)
	// The ad-hoc workloads complete about a thousand queries in the window:
	// ten samples beyond p99, and a run-to-run spread of 14 %. It is reported,
	// but as a per-layer number without a bound.
	res.PerLayer["lat_p99_ms"] = percentile(lat, 0.99)
	if len(lat) > 0 {
		ticks := w.after.cpuTicks - w.before.cpuTicks
		e["cpu_ms_per_query"] = float64(ticks) * 1000 / clockTicksPerSecond / float64(len(lat))
	}
	// The high-water mark at the end of this window: a traced window that
	// follows must not count.
	e["rss_peak_mb"] = w.after.rssPeak
	if w.after.fact.Rows > 0 {
		e["fact_bytes_per_row"] = float64(w.after.fact.PhysicalBytes) / float64(w.after.fact.Rows)
	}

	if fromDue, late := appendTimesMS(w); len(fromDue) > 0 {
		res.Samples["appends"] = len(fromDue)
		e["append_p50_ms"] = percentile(fromDue, 0.50)
		e["append_p95_ms"] = percentile(fromDue, 0.95)
		res.PerLayer["append_p99_ms"] = percentile(fromDue, 0.99)
		res.PerLayer["append_late_p99_ms"] = percentile(late, 0.99)
	}
}

// appendTimesMS are the window's successful appends, ascending: latency from
// the due time, and how late after it the request was sent.
func appendTimesMS(w *window) (fromDue, late []float64) {
	for _, s := range w.measuredAppends() {
		if s.status == http.StatusOK {
			fromDue = append(fromDue, float64(s.end.Sub(s.due))/1e6)
			late = append(late, float64(s.start.Sub(s.due))/1e6)
		}
	}
	sort.Float64s(fromDue)
	sort.Float64s(late)
	return fromDue, late
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the /v1/stats and /metrics deltas across a window into
// per-layer numbers.
func layerMetrics(w *window) map[string]float64 {
	m := make(map[string]float64)
	b, a := &w.before, &w.after
	queries := float64(a.front.Endpoints["query"].Count - b.front.Endpoints["query"].Count)
	compiles := float64(a.front.DB.PlanMisses - b.front.DB.PlanMisses + a.front.DB.PlanStale - b.front.DB.PlanStale)
	// Every query looks its plan up twice (prepare, then execute), so hits
	// over lookups would read 0.5 for a stream of new statements. The share
	// of queries that did not compile is the number that means something.
	// Clamped: a query in flight at a window edge can count its compile on
	// one side and its completion on the other.
	m["db.plan_hit_ratio"] = math.Max(0, 1-ratio(compiles, queries))
	m["db.plan_evictions"] = float64(a.front.DB.PlanEvictions - b.front.DB.PlanEvictions)

	d := func(get func(*observation) int64) float64 { return float64(get(a) - get(b)) }
	segs := d(func(o *observation) int64 { return o.exec.SegmentsTotal })
	pruned := d(func(o *observation) int64 { return o.exec.SegmentsPruned })
	aggHits := d(func(o *observation) int64 { return o.exec.AggCacheHits })
	aggMisses := d(func(o *observation) int64 { return o.exec.AggCacheMisses })
	bindHits := d(func(o *observation) int64 { return o.exec.BindCacheHits })
	bindMisses := d(func(o *observation) int64 { return o.exec.BindCacheMisses })
	m["core.segments_pruned_ratio"] = ratio(pruned, segs)
	m["core.aggcache_hit_ratio"] = ratio(aggHits, aggHits+aggMisses)
	m["core.aggcache_evictions"] = d(func(o *observation) int64 { return o.exec.AggCacheEvictions })
	m["core.bindcache_hit_ratio"] = ratio(bindHits, bindHits+bindMisses)
	m["core.rows_scanned_per_query"] = ratio(d(func(o *observation) int64 { return o.exec.RowsScanned }), queries)
	m["core.rows_selected_per_query"] = ratio(d(func(o *observation) int64 { return o.exec.RowsSelected }), queries)
	m["core.tail_rows_per_query"] = ratio(d(func(o *observation) int64 { return o.exec.TailRows }), queries)
	m["core.encoded_segments_per_query"] = ratio(d(func(o *observation) int64 { return o.exec.EncodedSegments }), queries)

	if sa, sb := a.front.Shard, b.front.Shard; sa != nil && sb != nil {
		m["shard.scatters_per_query"] = ratio(float64(sa.Scatters-sb.Scatters), queries)
		m["shard.partials_merged_per_query"] = ratio(float64(sa.PartialsMerged-sb.PartialsMerged), queries)
		m["shard.repins"] = float64(sa.Repins - sb.Repins)
		m["shard.failures"] = float64(sa.Failures - sb.Failures)
	}

	m["storage.segments_sealed"] = float64(a.fact.Sealed - b.fact.Sealed)
	m["storage.rows_appended"] = float64(a.fact.Rows - b.fact.Rows)
	m["fact_bytes_per_row"] = ratio(float64(a.fact.PhysicalBytes), float64(a.fact.Rows))

	m["server.queued"] = float64(a.front.Admission.Queued - b.front.Admission.Queued)
	m["server.rejected"] = float64(a.front.Admission.Rejected - b.front.Admission.Rejected)
	_, p50, _ := windowQuantile(b.hist, a.hist, 0.50)
	m["server.hist_p50_ms"] = p50 * 1000
	return m
}

// spanRecord is one traced request: the client's span around it and the span
// tree the server returned, joined by the request ID both sides saw.
type spanRecord struct {
	Workload  string    `json:"workload"`
	RequestID string    `json:"request_id"`
	Stmt      int       `json:"stmt"`
	StartNS   int64     `json:"client_start_unix_ns"`
	ClientUS  float64   `json:"client_us"`
	Server    *obs.Span `json:"server"`
}

// selfTimes adds each span's self time (its duration minus its children's)
// to acc, by span name.
func selfTimes(s *obs.Span, acc map[string]float64) {
	self := s.DurUS
	for _, c := range s.Children {
		self -= c.DurUS
		selfTimes(c, acc)
	}
	if self > 0 {
		acc[s.Name] += self
	}
}

// spanToLayer maps the server's span names to per-layer metric names.
var spanToLayer = map[string]string{
	obs.StageParse:     "server.parse_us",
	obs.StagePlanCache: "db.plan_cache_us",
	obs.StagePin:       "db.pin_us",
	obs.StagePrune:     "core.prune_us",
	obs.StageCache:     "core.cache_us",
	obs.StageBind:      "core.bind_us",
	obs.StageScan:      "core.scan_us",
	obs.StageMerge:     "core.merge_us",
	obs.StageScatter:   "shard.scatter_us",
}

// spanMetrics aggregates the traced window's span trees into mean self time
// per query and layer, and checks that the spans fit inside the round trip
// the client timed. Means, not medians: self times of one request add up to
// its root span, and only means keep that property across requests.
func spanMetrics(res *workloadResult, f *Flow, w *window) []spanRecord {
	totals := make(map[string]float64)
	var records []spanRecord
	var clientUS, rootUS float64
	outside := 0
	for _, s := range w.measuredReads() {
		if s.status != http.StatusOK {
			continue
		}
		var body struct {
			Trace *obs.Span `json:"trace"`
		}
		if err := json.Unmarshal(s.body, &body); err != nil || body.Trace == nil {
			res.fail("traced response without a span tree (request %s)", s.reqID)
			continue
		}
		rec := spanRecord{
			Workload: f.name, RequestID: s.reqID, Stmt: s.stmt,
			StartNS: s.start.UnixNano(), ClientUS: float64(s.end.Sub(s.start)) / 1e3, Server: body.Trace,
		}
		records = append(records, rec)
		selfTimes(body.Trace, totals)
		clientUS += rec.ClientUS
		rootUS += body.Trace.DurUS
		if body.Trace.DurUS > rec.ClientUS {
			outside++
		}
	}
	n := float64(len(records))
	res.Samples["traced_queries"] = len(records)
	if n == 0 {
		return nil
	}
	for _, layer := range spanToLayer {
		res.PerLayer[layer] = 0
	}
	largest, largestUS := "", 0.0
	for name, total := range totals {
		if layer, ok := spanToLayer[name]; ok {
			res.PerLayer[layer] = total / n
		}
		if name != obs.StageRoot && total > largestUS {
			largest, largestUS = name, total
		}
	}
	res.PerLayer["server.unattributed_us"] = (clientUS - rootUS) / n

	res.check("spans_within_round_trip", outside == 0,
		"%d of %d traced requests had a root span longer than the client's round trip (mean root %.1f us, mean client %.1f us)",
		outside, len(records), rootUS/n, clientUS/n)
	switch f.name {
	case "adhoc_plain":
		res.check("scan_is_largest_span", largest == obs.StageScan, "largest self time: %s (%.1f us/query)", largest, largestUS/n)
	case "adhoc_encoded":
		// Encoded chunks are decoded when a plan binds to a segment, so on
		// this layout the kernel's time shows under bind as well as scan.
		res.check("bind_or_scan_is_largest_span", largest == obs.StageScan || largest == obs.StageBind,
			"largest self time: %s (%.1f us/query; bind %.1f, scan %.1f)", largest, largestUS/n,
			totals[obs.StageBind]/n, totals[obs.StageScan]/n)
	case "sharded_warm":
		res.check("scatter_is_largest_span", largest == obs.StageScatter, "largest self time: %s (%.1f us/query)", largest, largestUS/n)
	}
	return records
}

// countFailures adds a window's attempted and failed operations.
func countFailures(res *workloadResult, f *Flow, w *window) {
	for _, s := range w.measuredReads() {
		res.Attempted++
		if s.status != http.StatusOK {
			res.fail("query %q: status %d", f.stmts[s.stmt], s.status)
		}
	}
	for _, s := range w.measuredAppends() {
		res.Attempted++
		if s.status != http.StatusOK {
			res.fail("append due %s: status %d", s.due.Format(time.RFC3339Nano), s.status)
		}
	}
}

// selfChecks asserts from the window's /v1/stats deltas (m, from
// layerMetrics) that the workload exercised what its description says it
// exercises.
func selfChecks(res *workloadResult, f *Flow, w *window, m map[string]float64) {
	tag := "untraced"
	if w.traced {
		tag = "traced"
	}
	chk := func(name string, ok bool, format string, args ...any) {
		res.check(name+"/"+tag, ok, format, args...)
	}

	chk("never_queued_or_rejected", m["server.queued"] == 0 && m["server.rejected"] == 0,
		"queued %.0f, rejected %.0f", m["server.queued"], m["server.rejected"])
	lo, est, _ := windowQuantile(w.before.hist, w.after.hist, 0.50)
	client := latencyP50(w)
	chk("server_p50_below_client_p50", lo*1000 <= client,
		"server p50 %.3f ms (bucket from %.3f ms), client p50 %.3f ms, gap %.3f ms", est*1000, lo*1000, client, client-est*1000)

	switch f.name {
	case "warm_repeat":
		chk("plan_cache_hit", m["db.plan_hit_ratio"] >= 0.95, "plan hit ratio %.4f", m["db.plan_hit_ratio"])
		chk("agg_cache_hit", m["core.aggcache_hit_ratio"] >= 0.95, "aggregate cache hit ratio %.4f", m["core.aggcache_hit_ratio"])
	case "adhoc_plain":
		chk("plan_cache_bypassed", m["db.plan_hit_ratio"] <= 0.05, "plan hit ratio %.4f", m["db.plan_hit_ratio"])
		chk("append_order_prunes_little", m["core.segments_pruned_ratio"] <= plainPruneCeiling,
			"pruned ratio %.4f", m["core.segments_pruned_ratio"])
	case "adhoc_encoded":
		chk("plan_cache_bypassed", m["db.plan_hit_ratio"] <= 0.05, "plan hit ratio %.4f", m["db.plan_hit_ratio"])
		chk("encoded_segments_scanned", m["core.encoded_segments_per_query"] > 0,
			"%.2f encoded segments per query", m["core.encoded_segments_per_query"])
		chk("clustering_prunes", m["core.segments_pruned_ratio"] > plainPruneCeiling,
			"pruned ratio %.4f", m["core.segments_pruned_ratio"])
	case "mixed_ingest":
		// Three seals in the pinned 10 s; a shorter window owes
		// proportionally fewer.
		rate := float64(appendBatchRows) / f.appendEvery.Seconds()
		want := math.Floor(w.seconds() * rate / storage.DefaultSegmentRows)
		chk("segments_sealed", m["storage.segments_sealed"] >= want,
			"%.0f sealed, %.0f rows appended, want >= %.0f", m["storage.segments_sealed"], m["storage.rows_appended"], want)
		_, late := appendTimesMS(w)
		p99 := percentile(late, 0.99)
		chk("writer_on_schedule", p99 < float64(f.appendEvery)/1e6, "writer lateness p99 %.3f ms, period %v", p99, f.appendEvery)
	case "sharded_warm":
		chk("agg_cache_hit", m["core.aggcache_hit_ratio"] >= 0.95, "aggregate cache hit ratio on workers %.4f", m["core.aggcache_hit_ratio"])
		chk("no_shard_failures", m["shard.failures"] == 0, "%.0f shard failures, %.0f re-pins", m["shard.failures"], m["shard.repins"])
	}
}

// finalAnswers is what a flow with a writer leaves behind: the server's
// answers after the last append, and which batches it acknowledged.
type finalAnswers struct {
	acked  []appendBatch
	totals []byte   // rows part of count(*), sum(lo_revenue)
	stmts  []string // the prime statements, asked once more
	bodies [][]byte
}

const totalsStmt = "SELECT count(*) AS n, sum(lo_revenue) AS rev FROM lineorder"

// collectFinal asks the still-running server for its final state, after the
// writer has stopped.
func collectFinal(c *cluster, f *Flow) (*finalAnswers, error) {
	conn := newConn()
	defer conn.CloseIdleConnections()
	fa := &finalAnswers{stmts: f.prime}
	body, err := postQuery(conn, c.front.url("/v1/query"), totalsStmt)
	if err != nil {
		return nil, err
	}
	fa.totals = rowsPart(body, false)
	for _, s := range fa.stmts {
		if body, err = postQuery(conn, c.front.url("/v1/query"), s); err != nil {
			return nil, err
		}
		fa.bodies = append(fa.bodies, rowsPart(body, false))
	}
	return fa, nil
}

// verifyAnswers compares recorded answers with the oracle's. It runs after
// the servers have stopped, so the oracle's copy of the data is never
// resident while anything is being timed.
func verifyAnswers(res *workloadResult, cfg config, f *Flow, windows []*window, final *finalAnswers) {
	o := newOracle(cfg)
	verified := 0
	if final == nil {
		for _, w := range windows {
			for stmt, distinct := range w.answers.byStmt {
				// Over data that does not change, a statement has one answer.
				if len(distinct) != 1 {
					res.fail("%d distinct answers over unchanged data: %s", len(distinct), f.stmts[stmt])
				}
				for _, got := range distinct {
					verified++
					if err := o.check(f.stmts[stmt], got); err != nil {
						res.fail("oracle mismatch: %v", err)
					}
				}
			}
		}
	} else {
		// Every acknowledged batch, in the order the writer cycled the pool.
		acked := 0
		for _, w := range windows {
			for _, s := range w.appends {
				if s.status == http.StatusOK {
					final.acked = append(final.acked, f.appendPool[s.batch])
					acked++
				}
			}
		}
		baseRows, baseRevenue := o.totals()
		wantRows, wantRevenue := baseRows, baseRevenue
		for _, b := range final.acked {
			wantRows += int64(len(b.rows))
			wantRevenue += b.revenue
		}
		want := []string{canonNum(float64(wantRows)) + "\x1f" + canonNum(float64(wantRevenue))}
		got, err := canonicalAnswer(final.totals)
		verified++
		if err != nil || len(got) != 1 || got[0] != want[0] {
			res.fail("final totals %q, want %q (base + %d acknowledged batches): %v", got, want, acked, err)
		}
		if err := o.apply(final.acked); err != nil {
			res.fail("%v", err)
		}
		for i, s := range final.stmts {
			verified++
			if err := o.check(s, final.bodies[i]); err != nil {
				res.fail("oracle mismatch after ingest: %v", err)
			}
		}
	}
	res.Samples["answers_verified"] = verified
	res.check("answers_verified", verified > 0, "%d answers compared with the hash-join oracle", verified)
}
