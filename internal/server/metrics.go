package server

import (
	"bytes"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"astore/internal/obs"
	"astore/internal/shard"
)

// This file is the server's whole metrics surface: the counters the server
// keeps itself (per-endpoint, admission), the JSON shapes of /v1/stats, and
// the /metrics registry. Counters another layer maintains — the DB's plan
// cache and scan counters, the engines' caches, per-table versions and
// sizes — are read in exactly one place, StatsSnapshot, which /v1/stats
// serves as is and a /metrics scrape takes once before rendering.

// endpointMetrics are cumulative per-endpoint serving counters, updated
// lock-free on every request by the instrumentation wrapper. lat is the
// endpoint's latency histogram in the shared registry (set once at mount
// time, before any request), so /v1/stats quantiles and /metrics buckets
// come from the same observations.
type endpointMetrics struct {
	count   atomic.Int64 // requests served (including errors)
	errors  atomic.Int64 // responses with status >= 400
	totalNS atomic.Int64 // summed wall time
	maxNS   atomic.Int64 // slowest request
	lat     *obs.Histogram
	errsC   *obs.Counter
}

func (m *endpointMetrics) observe(d time.Duration, failed bool) {
	m.count.Add(1)
	if failed {
		m.errors.Add(1)
		if m.errsC != nil {
			m.errsC.Inc()
		}
	}
	if m.lat != nil {
		m.lat.Observe(d.Seconds())
	}
	ns := d.Nanoseconds()
	m.totalNS.Add(ns)
	for {
		cur := m.maxNS.Load()
		if ns <= cur || m.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// EndpointStats is the JSON rendering of one endpoint's counters. The
// quantiles are estimated from the endpoint's log-bucketed latency
// histogram (the same one /metrics exposes).
type EndpointStats struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	AvgUS  float64 `json:"avg_us"`
	MaxUS  float64 `json:"max_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
}

func (m *endpointMetrics) snapshot() EndpointStats {
	s := EndpointStats{
		Count:  m.count.Load(),
		Errors: m.errors.Load(),
		MaxUS:  float64(m.maxNS.Load()) / 1e3,
	}
	if s.Count > 0 {
		s.AvgUS = float64(m.totalNS.Load()) / float64(s.Count) / 1e3
	}
	if m.lat != nil && m.lat.Count() > 0 {
		s.P50US = m.lat.Quantile(0.50) * 1e6
		s.P95US = m.lat.Quantile(0.95) * 1e6
		s.P99US = m.lat.Quantile(0.99) * 1e6
	}
	return s
}

// AdmissionStats is the JSON rendering of the admission controller's state.
type AdmissionStats struct {
	MaxInFlight int   `json:"max_in_flight"`
	MaxQueue    int   `json:"max_queue"`
	InFlight    int   `json:"in_flight"`
	Waiting     int   `json:"waiting"`
	Admitted    int64 `json:"admitted"`
	Queued      int64 `json:"queued"`
	Rejected    int64 `json:"rejected"`
}

// DBStats is the "db" block of /v1/stats: the DB's plan-cache and serving
// counters.
type DBStats struct {
	dbCounters
	// Always 0: the binding cache is gone, but the pinned benchmark client
	// still sums these two; they leave with the next [benchmark] PR.
	BindCacheHits   int64 `json:"bind_cache_hits"`
	BindCacheMisses int64 `json:"bind_cache_misses"`
}

// dbCounters is db.Stats field for field, with JSON names.
type dbCounters struct {
	Prepares      int64 `json:"prepares"`
	Execs         int64 `json:"execs"`
	PlanHits      int64 `json:"plan_hits"`
	PlanMisses    int64 `json:"plan_misses"`
	PlanStale     int64 `json:"plan_stale"`
	PlanEvictions int64 `json:"plan_evictions"`
	// SegmentsTotal and SegmentsPruned report the segment-admission summary
	// across all executions — the same decision Explain renders per plan:
	// segments considered vs. segments skipped before any row work.
	SegmentsTotal  int64 `json:"segments_total"`
	SegmentsPruned int64 `json:"segments_pruned"`
	// RowsScanned and RowsSelected report root rows considered vs. rows
	// surviving all predicates across executions.
	RowsScanned  int64 `json:"rows_scanned"`
	RowsSelected int64 `json:"rows_selected"`
	// EncodedSegments counts admitted segments containing at least one
	// compressed (RLE/FoR) chunk across executions.
	EncodedSegments int64 `json:"encoded_segments"`
	// PruneByFilter attributes segment prunes to the filter that proved
	// them, keyed by the filter's display label (predicate text for root
	// filters, "probe <table> via <fk>" for dimension probes). Omitted
	// until the first attributed prune.
	PruneByFilter map[string]int64 `json:"prune_by_filter,omitempty"`
	// TailRows counts rows scanned live from mutable tails — the work the
	// segment aggregate cache can never absorb.
	TailRows int64 `json:"tail_rows"`
	// Segment aggregate cache counters (per-plan partial aggregates over
	// sealed segments): cumulative hits/misses/evictions, point-in-time
	// bytes/entries, summed over the DB's engines.
	AggCacheHits      int64 `json:"agg_cache_hits"`
	AggCacheMisses    int64 `json:"agg_cache_misses"`
	AggCacheEvictions int64 `json:"agg_cache_evictions"`
	AggCacheBytes     int64 `json:"agg_cache_bytes"`
	AggCacheEntries   int64 `json:"agg_cache_entries"`
}

// TableStats is the per-table block of /v1/stats: one consistent sample of
// the table's row count, versions and layout, read under the table's mutex
// without pinning it.
type TableStats struct {
	Rows int64 `json:"rows"`
	// DataVersion counts row mutations (appends, updates, deletes); plan
	// freshness checks compare against it.
	DataVersion uint64 `json:"data_version"`
	// SchemaVersion counts structural mutations (columns, FKs,
	// re-segmentation).
	SchemaVersion uint64 `json:"schema_version"`
	// Segments is the total segment count (sealed + tail); a table that
	// never seals has 1.
	Segments int `json:"segments"`
	Sealed   int `json:"sealed"`
	// LogicalBytes and PhysicalBytes report the decoded vs. stored size of
	// the table's live chunks; they differ when sealed-segment encodings
	// are enabled. EncodedChunks of Chunks are stored compressed.
	LogicalBytes  int64 `json:"logical_bytes"`
	PhysicalBytes int64 `json:"physical_bytes"`
	EncodedChunks int   `json:"encoded_chunks"`
	Chunks        int   `json:"chunks"`
}

// Stats is the GET /v1/stats response body.
type Stats struct {
	UptimeMS      int64                    `json:"uptime_ms"`
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Panics        int64                    `json:"panics"`
	SlowQueries   int64                    `json:"slow_queries"`
	DB            DBStats                  `json:"db"`
	Admission     AdmissionStats           `json:"admission"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	Tables        map[string]TableStats    `json:"tables"`
	// Shard is present on coordinators: cumulative scatter-gather counters.
	Shard *shard.Stats `json:"shard,omitempty"`
}

// serverMetrics are the push-side instruments of the server's registry.
// Counters another layer already maintains (plan cache, admission,
// per-table versions) are registered as collect-time funcs instead, which
// read them from the scrape's one StatsSnapshot.
type serverMetrics struct {
	reqDur    *obs.HistogramVec // astore_http_request_duration_seconds{endpoint}
	reqErrors *obs.CounterVec   // astore_http_request_errors_total{endpoint}
	queueWait *obs.Histogram    // astore_query_queue_wait_seconds

	slowQueries   *obs.Counter // astore_slow_queries_total
	rowsAppended  *obs.Counter // astore_rows_appended_total
	appendBatches *obs.Counter // astore_append_batches_total

	// scrape is the sample the collect-time funcs read. handleMetrics
	// refreshes it and renders the registry under scrapeMu; the funcs run
	// nowhere else.
	scrapeMu sync.Mutex
	scrape   Stats
}

// initMetrics builds the server's metric registry. Called once from New,
// before any handler is mounted.
func (s *Server) initMetrics() {
	r := obs.NewRegistry()
	s.reg = r

	r.GaugeFunc("astore_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	buckets := obs.DefaultLatencyBuckets()
	s.met.reqDur = r.HistogramVec("astore_http_request_duration_seconds",
		"Wall time of HTTP requests by endpoint.", "endpoint", buckets)
	s.met.reqErrors = r.CounterVec("astore_http_request_errors_total",
		"HTTP responses with status >= 400 by endpoint.", "endpoint")
	s.met.queueWait = r.Histogram("astore_query_queue_wait_seconds",
		"Time queries spent waiting for an admission slot.", buckets)
	s.met.slowQueries = r.Counter("astore_slow_queries_total",
		"Queries at or above the slow-query threshold.")
	s.met.rowsAppended = r.Counter("astore_rows_appended_total",
		"Rows appended through POST /v1/tables/{table}/append.")
	s.met.appendBatches = r.Counter("astore_append_batches_total",
		"Append request bodies fully applied.")

	// Plan-cache and execution counters, as sampled from the DB at the
	// start of the scrape.
	dbCounter := func(name, help string, get func() int64) {
		r.CounterFunc(name, help, func() float64 { return float64(get()) })
	}
	dbCounter("astore_plan_cache_hits_total", "Executions that reused a cached plan unchanged.",
		func() int64 { return s.met.scrape.DB.PlanHits })
	dbCounter("astore_plan_cache_misses_total", "Compilations because no cached plan existed.",
		func() int64 { return s.met.scrape.DB.PlanMisses })
	dbCounter("astore_plan_cache_stale_total", "Recompilations because table versions moved under a cached plan.",
		func() int64 { return s.met.scrape.DB.PlanStale })
	dbCounter("astore_plan_cache_evictions_total", "Cached plans dropped by the LRU capacity bound.",
		func() int64 { return s.met.scrape.DB.PlanEvictions })
	dbCounter("astore_segments_considered_total", "Root segments considered by segment admission.",
		func() int64 { return s.met.scrape.DB.SegmentsTotal })
	dbCounter("astore_segments_pruned_total", "Root segments skipped by zone-map pruning.",
		func() int64 { return s.met.scrape.DB.SegmentsPruned })
	dbCounter("astore_rows_scanned_total", "Root rows considered across executions.",
		func() int64 { return s.met.scrape.DB.RowsScanned })
	dbCounter("astore_rows_selected_total", "Root rows surviving all predicates across executions.",
		func() int64 { return s.met.scrape.DB.RowsSelected })
	dbCounter("astore_encoded_segments_total", "Admitted segments containing compressed (RLE/FoR) chunks.",
		func() int64 { return s.met.scrape.DB.EncodedSegments })
	dbCounter("astore_tail_rows_total", "Rows scanned live from mutable tails (work the aggregate cache cannot absorb).",
		func() int64 { return s.met.scrape.DB.TailRows })

	// Segment aggregate cache (per-plan partial aggregates over sealed
	// segments).
	dbCounter("astore_aggcache_hits_total", "Sealed-segment scans skipped by serving a cached partial aggregate.",
		func() int64 { return s.met.scrape.DB.AggCacheHits })
	dbCounter("astore_aggcache_misses_total", "Sealed segments scanned live and installed into the aggregate cache.",
		func() int64 { return s.met.scrape.DB.AggCacheMisses })
	dbCounter("astore_aggcache_evictions_total", "Aggregate cache entries dropped by the byte-accounted LRU bound.",
		func() int64 { return s.met.scrape.DB.AggCacheEvictions })
	r.GaugeFunc("astore_aggcache_bytes", "Current size of the segment aggregate cache.",
		func() float64 { return float64(s.met.scrape.DB.AggCacheBytes) })
	r.GaugeFunc("astore_aggcache_entries", "Current entry count of the segment aggregate cache.",
		func() float64 { return float64(s.met.scrape.DB.AggCacheEntries) })

	// Admission controller state and totals.
	r.GaugeFunc("astore_admission_in_flight", "Queries currently executing.",
		func() float64 { return float64(s.adm.inFlight()) })
	r.GaugeFunc("astore_admission_waiting", "Queries currently queued for a slot.",
		func() float64 { return float64(s.adm.waiting()) })
	dbCounter("astore_admission_admitted_total", "Queries admitted to execute.",
		func() int64 { return s.adm.admitted.Load() })
	dbCounter("astore_admission_queued_total", "Queries admitted after waiting in the queue.",
		func() int64 { return s.adm.queued.Load() })
	dbCounter("astore_admission_rejected_total", "Queries rejected by admission control.",
		func() int64 { return s.adm.rejected.Load() })
	dbCounter("astore_panics_total", "Handler panics recovered to 500s.",
		func() int64 { return s.panics.Load() })

	// Per-table gauges, from the scrape's per-table samples.
	tableGauge := func(name, help string, get func(TableStats) float64) {
		r.GaugeFuncVec(name, help, "table", func() []obs.LabeledSample {
			out := make([]obs.LabeledSample, 0, len(s.met.scrape.Tables))
			for table, ts := range s.met.scrape.Tables {
				out = append(out, obs.LabeledSample{Label: table, Value: get(ts)})
			}
			return out
		})
	}
	tableGauge("astore_table_rows", "Rows per table (including deleted).",
		func(ts TableStats) float64 { return float64(ts.Rows) })
	tableGauge("astore_table_data_version", "Data mutation counter per table.",
		func(ts TableStats) float64 { return float64(ts.DataVersion) })
	tableGauge("astore_table_physical_bytes", "Stored size of live chunks per table (after encodings).",
		func(ts TableStats) float64 { return float64(ts.PhysicalBytes) })
	tableGauge("astore_table_logical_bytes", "Decoded size of live chunks per table.",
		func(ts TableStats) float64 { return float64(ts.LogicalBytes) })
}

// handleMetrics serves GET /metrics in Prometheus text exposition format.
// It samples the other layers' counters once, renders every family from
// that sample, and only then writes to the client, so a slow reader holds
// nothing.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	s.met.scrapeMu.Lock()
	s.met.scrape = s.StatsSnapshot()
	_ = s.reg.WriteText(&buf) // writes to a bytes.Buffer do not fail
	s.met.scrapeMu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes()) // the client went away; nothing to do about it
}

// tableStats samples every table's row count, versions and layout for
// StatsSnapshot. Table.Layout reads them under the table's mutex in one
// acquisition and pins nothing, so sampling neither races writers nor makes
// them copy-on-write.
func (s *Server) tableStats() map[string]TableStats {
	out := make(map[string]TableStats)
	for _, t := range s.db.Catalog().Tables() {
		l := t.Layout()
		out[t.Name] = TableStats{
			Rows:          int64(l.Rows),
			DataVersion:   l.DataVersion,
			SchemaVersion: l.SchemaVersion,
			Segments:      l.Sealed + 1,
			Sealed:        l.Sealed,
			LogicalBytes:  l.LogicalBytes,
			PhysicalBytes: l.PhysicalBytes,
			EncodedChunks: l.EncodedChunks,
			Chunks:        l.TotalChunks,
		}
	}
	return out
}
