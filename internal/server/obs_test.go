package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astore/internal/core"
	"astore/internal/obs"
	"astore/internal/storage"
)

// tracedResp is the /v1/query response body of a traced request.
type tracedResp struct {
	Fact      string    `json:"fact"`
	Rows      [][]any   `json:"rows"`
	RowCount  int       `json:"row_count"`
	ElapsedUS int64     `json:"elapsed_us"`
	Trace     *obs.Span `json:"trace"`
}

func collectSpans(s *obs.Span, into map[string]*obs.Span) {
	if s == nil {
		return
	}
	into[s.Name] = s
	for _, c := range s.Children {
		collectSpans(c, into)
	}
}

func TestQueryTraceSpans(t *testing.T) {
	_, ts, _, _ := newSSBServer(t, 0.01, Config{}, core.Options{SegmentRows: 4096})

	sqlText := `SELECT d_year, sum(lo_revenue) AS rev FROM lineorder, date
		WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year`
	body, _ := json.Marshal(map[string]any{"sql": sqlText, "trace": true})
	resp, raw := post(t, ts.URL+"/v1/query", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if rid := resp.Header.Get("X-Astore-Request-Id"); len(rid) != 16 {
		t.Errorf("X-Astore-Request-Id = %q, want a 16-char id", rid)
	}

	var got tracedResp
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("response is not valid JSON: %v\n%s", err, raw)
	}
	if got.Trace == nil {
		t.Fatalf("no trace in response: %s", raw)
	}
	if got.Trace.Name != obs.StageRoot {
		t.Errorf("trace root = %q, want %q", got.Trace.Name, obs.StageRoot)
	}

	spans := map[string]*obs.Span{}
	collectSpans(got.Trace, spans)
	var stageSumUS float64
	for _, stage := range obs.StageNames() {
		sp, ok := spans[stage]
		if !ok {
			t.Fatalf("trace is missing a span for stage %q; have %v", stage, spanNames(spans))
		}
		if sp.DurUS <= 0 {
			t.Errorf("stage %q has non-positive duration %v", stage, sp.DurUS)
		}
		stageSumUS += sp.DurUS
	}
	// The acceptance bound: stage durations sum to within 2x of the
	// reported wall time (they are sequential portions of it, so the sum
	// must not wildly exceed what the server reports).
	if wall := float64(got.ElapsedUS); stageSumUS > 2*wall {
		t.Errorf("stage durations sum to %.1fus > 2x reported wall %dus", stageSumUS, got.ElapsedUS)
	}
	if scan := spans[obs.StageScan]; scan.RowsIn == 0 {
		t.Errorf("scan span has no rows_in: %+v", scan)
	}
	if prune := spans[obs.StagePrune]; prune.Segments == 0 {
		t.Errorf("prune span has no segment count: %+v", prune)
	}
	if pc := spans[obs.StagePlanCache]; pc.CacheHit == nil {
		t.Errorf("plan_cache span has no cache_hit attribute: %+v", pc)
	}

	// Untraced requests must not carry a trace.
	body, _ = json.Marshal(map[string]any{"sql": sqlText})
	_, raw = post(t, ts.URL+"/v1/query", string(body))
	var plain map[string]json.RawMessage
	if err := json.Unmarshal(raw, &plain); err != nil {
		t.Fatal(err)
	}
	if _, ok := plain["trace"]; ok {
		t.Error("untraced response carries a trace field")
	}
}

func spanNames(m map[string]*obs.Span) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	return names
}

func TestExplainOverHTTP(t *testing.T) {
	_, ts, _, _ := newSSBServer(t, 0.01, Config{}, core.Options{SegmentRows: 4096})

	// EXPLAIN: plan text, no execution, stage names present.
	body, _ := json.Marshal(map[string]any{
		"sql": "EXPLAIN SELECT sum(lo_revenue) AS rev FROM lineorder WHERE lo_discount BETWEEN 1 AND 3"})
	resp, raw := post(t, ts.URL+"/v1/query", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("EXPLAIN status %d: %s", resp.StatusCode, raw)
	}
	var ex struct {
		Fact    string `json:"fact"`
		Explain string `json:"explain"`
	}
	if err := json.Unmarshal(raw, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Fact != "lineorder" || !strings.Contains(ex.Explain, "stages: ") {
		t.Errorf("EXPLAIN response missing plan stages: %s", raw)
	}
	for _, stage := range obs.StageNames() {
		if !strings.Contains(ex.Explain, stage) {
			t.Errorf("EXPLAIN output does not name stage %q:\n%s", stage, ex.Explain)
		}
	}

	// EXPLAIN ANALYZE: executes and attaches the span tree.
	body, _ = json.Marshal(map[string]any{
		"sql": "EXPLAIN ANALYZE SELECT sum(lo_revenue) AS rev FROM lineorder WHERE lo_discount BETWEEN 1 AND 3"})
	resp, raw = post(t, ts.URL+"/v1/query", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("EXPLAIN ANALYZE status %d: %s", resp.StatusCode, raw)
	}
	var got tracedResp
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Trace == nil || got.RowCount != 1 {
		t.Errorf("EXPLAIN ANALYZE: rows %d, trace %v; want 1 row with a trace", got.RowCount, got.Trace != nil)
	}
}

// promSample matches one Prometheus text-format sample line.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[-+]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)

func TestMetricsEndpoint(t *testing.T) {
	_, ts, _, _ := newSSBServer(t, 0.01, Config{}, core.Options{SegmentRows: 4096})

	// Generate some traffic first so histograms and counters are non-empty.
	body, _ := json.Marshal(map[string]any{
		"sql": "SELECT sum(lo_revenue) AS rev FROM lineorder WHERE lo_discount BETWEEN 1 AND 3"})
	for i := 0; i < 3; i++ {
		if resp, raw := post(t, ts.URL+"/v1/query", string(body)); resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d: %s", resp.StatusCode, raw)
		}
	}
	appendBody := `{"rows":[{"lo_custkey":0,"lo_suppkey":0,"lo_partkey":0,"lo_orderdate":0,"lo_quantity":1,"lo_discount":1,"lo_extendedprice":1,"lo_ordtotalprice":1,"lo_revenue":1,"lo_supplycost":1,"lo_tax":0}]}`
	post(t, ts.URL+"/v1/tables/lineorder/append", appendBody) // outcome not asserted; only traffic

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	// Every non-comment line must be a well-formed sample.
	samples := 0
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("/metrics line %d is not valid Prometheus text: %q", ln+1, line)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("/metrics emitted no samples")
	}

	for _, want := range []string{
		"# TYPE astore_http_request_duration_seconds histogram",
		`astore_http_request_duration_seconds_bucket{endpoint="query",le="+Inf"} 3`,
		`astore_http_request_duration_seconds_count{endpoint="query"} 3`,
		"# TYPE astore_query_queue_wait_seconds histogram",
		"astore_plan_cache_hits_total ",
		"astore_plan_cache_misses_total ",
		"astore_segments_considered_total ",
		"astore_segments_pruned_total ",
		"astore_rows_scanned_total ",
		"astore_tail_rows_total ",
		"astore_aggcache_hits_total ",
		"astore_aggcache_misses_total ",
		"astore_aggcache_evictions_total ",
		"astore_aggcache_bytes ",
		"astore_aggcache_entries ",
		"astore_admission_in_flight ",
		"astore_uptime_seconds ",
		`astore_table_rows{table="lineorder"} `,
		`astore_table_data_version{table="lineorder"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for the slow-query writer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSlowQueryLogFiresOnce(t *testing.T) {
	var buf syncBuffer
	srv, ts, _, _ := newSSBServer(t, 0.01,
		Config{SlowQuery: 10 * time.Millisecond, SlowQueryWriter: &buf},
		core.Options{SegmentRows: 4096})

	// Artificially slow: hold the query after admission past the threshold.
	srv.testHookAdmitted = func() { time.Sleep(25 * time.Millisecond) }
	body, _ := json.Marshal(map[string]any{
		"sql": "SELECT sum(lo_revenue) AS rev FROM lineorder"})
	if resp, raw := post(t, ts.URL+"/v1/query", string(body)); resp.StatusCode != http.StatusOK {
		t.Fatalf("slow query status %d: %s", resp.StatusCode, raw)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1 || lines[0] == "" {
		t.Fatalf("slow-query log fired %d times, want exactly 1:\n%s", len(lines), buf.String())
	}
	var entry obs.SlowEntry
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("slow-query line is not JSON: %v\n%s", err, lines[0])
	}
	if entry.ElapsedUS < 10000 {
		t.Errorf("elapsed_us = %d, want >= threshold 10000", entry.ElapsedUS)
	}
	if entry.Fact != "lineorder" || len(entry.RequestID) != 16 || entry.Query == "" {
		t.Errorf("slow entry incomplete: %+v", entry)
	}
	if len(entry.StagesUS) == 0 {
		t.Errorf("slow entry has no stage summary: %+v", entry)
	}

	// A fast query must not log.
	srv.testHookAdmitted = nil
	if resp, raw := post(t, ts.URL+"/v1/query", string(body)); resp.StatusCode != http.StatusOK {
		t.Fatalf("fast query status %d: %s", resp.StatusCode, raw)
	}
	if got := buf.String(); strings.Count(got, "\n") != 1 {
		t.Fatalf("fast query logged a slow-query line:\n%s", got)
	}

	st := srv.StatsSnapshot()
	if st.SlowQueries != 1 {
		t.Errorf("stats slow_queries = %d, want 1", st.SlowQueries)
	}
}

func TestStatsUptimeAndTables(t *testing.T) {
	srv, ts, _, _ := newSSBServer(t, 0.01, Config{}, core.Options{SegmentRows: 4096})

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", st.UptimeSeconds)
	}
	lo, ok := st.Tables["lineorder"]
	if !ok {
		t.Fatalf("stats missing lineorder table block: %+v", st.Tables)
	}
	if lo.Rows == 0 || lo.Segments == 0 {
		t.Errorf("lineorder table stats empty: %+v", lo)
	}
	before := lo.DataVersion

	// An append must advance the reported data_version.
	appendBody := `{"rows":[{"lo_custkey":0,"lo_suppkey":0,"lo_partkey":0,"lo_orderdate":0,"lo_quantity":1,"lo_discount":1,"lo_extendedprice":1,"lo_ordtotalprice":1,"lo_revenue":1,"lo_supplycost":1,"lo_tax":0}]}`
	if resp2, raw := post(t, ts.URL+"/v1/tables/lineorder/append", appendBody); resp2.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s", resp2.StatusCode, raw)
	}
	if after := srv.StatsSnapshot().Tables["lineorder"].DataVersion; after <= before {
		t.Errorf("data_version did not advance: %d -> %d", before, after)
	}
}

// TestScrapesPinNothing: /metrics and /v1/stats read row counts and layout
// through a locked accessor, never through a snapshot — a scrape that pins
// a table marks every chunk shared, and a writer that happens to run beside
// it then pays a copy-on-write for nothing. A watcher polls every table's
// pin count while the scrapes run; afterwards an update must still land in
// the arrays that were there before.
func TestScrapesPinNothing(t *testing.T) {
	srv, _, data, _ := newSSBServer(t, 0.005, Config{}, core.Options{SegmentRows: 2048})
	tables := data.DB.Tables()

	// tailArray names one non-FK column of the table, a value to store in
	// it, and the address of that column's array in the tail.
	tailArray := func(tab *storage.Table) (col string, val any, array any) {
		views := tab.SegViews()
		tail := views[len(views)-1]
		for _, col := range tab.ColumnNames() {
			if tab.FK(col) != nil || tail.N == 0 {
				continue
			}
			switch c := tail.Cols[col].(type) {
			case *storage.Int32Col:
				return col, 1, &c.V[0]
			case *storage.Int64Col:
				return col, 1, &c.V[0]
			case *storage.DictCol:
				return col, "x", &c.Codes[0]
			}
		}
		t.Fatalf("table %s: no column to probe in its tail", tab.Name)
		return "", nil, nil
	}
	before := make(map[string]any)
	for _, tab := range tables {
		_, _, before[tab.Name] = tailArray(tab)
	}

	var sawPin atomic.Bool
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tab := range tables {
				if tab.Pins() != 0 {
					sawPin.Store(true)
				}
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		for _, path := range []string{"/metrics", "/v1/stats"} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: %d", path, rec.Code)
			}
		}
	}
	close(stop)
	<-done
	if sawPin.Load() {
		t.Error("a scrape pinned a table")
	}

	for _, tab := range tables {
		col, val, _ := tailArray(tab)
		if err := tab.Update(tab.NumRows()-1, col, val); err != nil {
			t.Fatal(err)
		}
		if _, _, after := tailArray(tab); after != before[tab.Name] {
			t.Errorf("table %s: an update after the scrapes copied its chunk", tab.Name)
		}
	}
}

// TestStatsSnapshotRace exercises concurrent scrapes (JSON stats and
// Prometheus text) against 8 writers appending rows and running queries;
// run under -race this asserts the histogram and table sampling are
// data-race free.
func TestStatsSnapshotRace(t *testing.T) {
	srv, ts, data, _ := newSSBServer(t, 0.005, Config{MaxInFlight: 8}, core.Options{SegmentRows: 2048})

	proto := map[string]any{
		"lo_custkey": int64(0), "lo_suppkey": int64(0), "lo_partkey": int64(0),
		"lo_orderdate": int64(0), "lo_quantity": int64(1), "lo_discount": int64(1),
		"lo_extendedprice": int64(1), "lo_ordtotalprice": int64(1),
		"lo_revenue": int64(1), "lo_supplycost": int64(1), "lo_tax": int64(0),
	}

	const writers = 8
	var writerWG, scrapeWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < 50; i++ {
				if _, err := data.Lineorder.Insert(proto); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				body, _ := json.Marshal(map[string]any{
					"sql":   "SELECT sum(lo_revenue) AS rev FROM lineorder",
					"trace": i%2 == 0,
				})
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(string(body)))
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			srv.StatsSnapshot()
			resp, err := http.Get(ts.URL + "/metrics")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	writerWG.Wait()
	close(stop)
	scrapeWG.Wait()

	st := srv.StatsSnapshot()
	if got := st.Endpoints["query"].Count; got < writers*50 {
		t.Errorf("query endpoint count = %d, want >= %d", got, writers*50)
	}
	if _, ok := st.Tables["lineorder"]; !ok {
		t.Fatal("stats snapshot lost the lineorder table block")
	}
}
