package server

import (
	"bytes"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"astore/internal/db"
	"astore/internal/obs"
	"astore/internal/shard"
)

// This file is the server's whole metrics surface: the counters the server
// keeps itself (per-endpoint, admission), the JSON shapes of /v1/stats, and
// the /metrics registry. Counters another layer maintains — the DB's plan
// cache and scan counters, the engines' caches, per-table versions and
// sizes — are read in exactly one place, StatsSnapshot, which /v1/stats
// serves as is and a /metrics scrape takes once before rendering.

// endpointMetrics are one endpoint's serving instruments, updated lock-free
// on every request by the instrumentation wrapper: its latency histogram
// and error counter in the shared registry (bound once at mount time,
// before any request), so /v1/stats and /metrics read the same
// observations, and the slowest request, which no registry family holds.
type endpointMetrics struct {
	lat   *obs.Histogram
	errs  *obs.Counter
	maxNS atomic.Int64
}

func (m *endpointMetrics) observe(d time.Duration, failed bool) {
	if failed {
		m.errs.Inc()
	}
	m.lat.Observe(d.Seconds())
	ns := d.Nanoseconds()
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
		Count:  m.lat.Count(),
		Errors: m.errs.Value(),
		MaxUS:  float64(m.maxNS.Load()) / 1e3,
	}
	if s.Count > 0 {
		s.AvgUS = m.lat.Sum() / float64(s.Count) * 1e6
		s.P50US = m.lat.Quantile(0.50) * 1e6
		s.P95US = m.lat.Quantile(0.95) * 1e6
		s.P99US = m.lat.Quantile(0.99) * 1e6
	}
	return s
}

// The stats types below are the JSON of /v1/stats and, through their
// metric and help tags, the counter and gauge families of /metrics
// (obs.Registry.RegisterFields). A counter is added in exactly one place:
// a tagged field of the struct whose layer maintains it.

// AdmissionStats is the JSON rendering of the admission controller's state.
type AdmissionStats struct {
	MaxInFlight int   `json:"max_in_flight"`
	MaxQueue    int   `json:"max_queue"`
	InFlight    int   `json:"in_flight" metric:"astore_admission_in_flight,gauge" help:"Queries currently executing."`
	Waiting     int   `json:"waiting" metric:"astore_admission_waiting,gauge" help:"Queries currently queued for a slot."`
	Admitted    int64 `json:"admitted" metric:"astore_admission_admitted_total,counter" help:"Queries admitted to execute."`
	Queued      int64 `json:"queued" metric:"astore_admission_queued_total,counter" help:"Queries admitted after waiting in the queue."`
	Rejected    int64 `json:"rejected" metric:"astore_admission_rejected_total,counter" help:"Queries rejected by admission control."`
}

// DBStats is the "db" block of /v1/stats: the DB's plan-cache and serving
// counters.
type DBStats struct {
	db.Stats
	// Always 0: the binding cache is gone, but the pinned benchmark client
	// still sums these two; they leave with the next [benchmark] PR.
	BindCacheHits   int64 `json:"bind_cache_hits"`
	BindCacheMisses int64 `json:"bind_cache_misses"`
}

// TableStats is the per-table block of /v1/stats: one consistent sample of
// the table's row count, versions and layout, read under the table's mutex
// without pinning it.
type TableStats struct {
	Rows int64 `json:"rows" metric:"astore_table_rows,gauge" help:"Rows per table (including deleted)."`
	// DataVersion counts row mutations (appends, updates, deletes); plan
	// freshness checks compare against it.
	DataVersion uint64 `json:"data_version" metric:"astore_table_data_version,gauge" help:"Data mutation counter per table."`
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
	LogicalBytes  int64 `json:"logical_bytes" metric:"astore_table_logical_bytes,gauge" help:"Decoded size of live chunks per table."`
	PhysicalBytes int64 `json:"physical_bytes" metric:"astore_table_physical_bytes,gauge" help:"Stored size of live chunks per table (after encodings)."`
	EncodedChunks int   `json:"encoded_chunks"`
	Chunks        int   `json:"chunks"`
}

// Stats is the GET /v1/stats response body.
type Stats struct {
	UptimeMS      int64                    `json:"uptime_ms"`
	UptimeSeconds float64                  `json:"uptime_seconds" metric:"astore_uptime_seconds,gauge" help:"Seconds since the server started."`
	Panics        int64                    `json:"panics" metric:"astore_panics_total,counter" help:"Handler panics recovered to 500s."`
	SlowQueries   int64                    `json:"slow_queries" metric:"astore_slow_queries_total,counter" help:"Queries at or above the slow-query threshold."`
	DB            DBStats                  `json:"db"`
	Admission     AdmissionStats           `json:"admission"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	Tables        map[string]TableStats    `json:"tables" label:"table"`
	// Shard is present on coordinators: cumulative scatter-gather counters.
	Shard *shard.Stats `json:"shard,omitempty"`
}

// serverMetrics are the push-side instruments of the server's registry:
// the events no /v1/stats field counts.
type serverMetrics struct {
	reqDur    *obs.HistogramVec // astore_http_request_duration_seconds{endpoint}
	reqErrors *obs.CounterVec   // astore_http_request_errors_total{endpoint}
	queueWait *obs.Histogram    // astore_query_queue_wait_seconds

	rowsAppended  *obs.Counter // astore_rows_appended_total
	appendBatches *obs.Counter // astore_append_batches_total

	// scrape is the sample the tagged-field families read. handleMetrics
	// refreshes it and renders the registry under scrapeMu; nothing else
	// reads it.
	scrapeMu sync.Mutex
	scrape   Stats
}

// initMetrics builds the server's metric registry. Called once from New,
// before any handler is mounted.
func (s *Server) initMetrics() {
	r := obs.NewRegistry()
	s.reg = r

	buckets := obs.DefaultLatencyBuckets()
	s.met.reqDur = r.HistogramVec("astore_http_request_duration_seconds",
		"Wall time of HTTP requests by endpoint.", "endpoint", buckets)
	s.met.reqErrors = r.CounterVec("astore_http_request_errors_total",
		"HTTP responses with status >= 400 by endpoint.", "endpoint")
	s.met.queueWait = r.Histogram("astore_query_queue_wait_seconds",
		"Time queries spent waiting for an admission slot.", buckets)
	s.met.rowsAppended = r.Counter("astore_rows_appended_total",
		"Rows appended through POST /v1/tables/{table}/append.")
	s.met.appendBatches = r.Counter("astore_append_batches_total",
		"Append request bodies fully applied.")

	// Every tagged field of the snapshot. The shard block registers only
	// when it is present, on a coordinator.
	if s.cfg.Coordinator != nil {
		s.met.scrape.Shard = &shard.Stats{}
	}
	r.RegisterFields(&s.met.scrape)
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
