package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/obs"
)

// taggedSamples collects the value of every metric-tagged field under v, keyed
// the way /metrics renders its series: the family name, plus the label block
// for the elements of a label-tagged map. It walks the JSON-decoded /v1/stats
// body independently of the registry.
func taggedSamples(v reflect.Value, into map[string]float64) {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		if tag := f.Tag.Get("metric"); tag != "" {
			name, _, _ := strings.Cut(tag, ",")
			into[name] = number(fv)
			continue
		}
		switch {
		case fv.Kind() == reflect.Struct:
			taggedSamples(fv, into)
		case fv.Kind() == reflect.Pointer && !fv.IsNil():
			taggedSamples(fv.Elem(), into)
		case fv.Kind() == reflect.Map && f.Tag.Get("label") != "":
			for _, k := range fv.MapKeys() {
				elem := fv.MapIndex(k)
				for j := 0; j < elem.NumField(); j++ {
					if tag := elem.Type().Field(j).Tag.Get("metric"); tag != "" {
						name, _, _ := strings.Cut(tag, ",")
						into[fmt.Sprintf("%s{%s=%q}", name, f.Tag.Get("label"), k.String())] = number(elem.Field(j))
					}
				}
			}
		}
	}
}

func number(v reflect.Value) float64 {
	switch {
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	default:
		return v.Float()
	}
}

// metricSamples parses a text exposition into series → value.
func metricSamples(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestStatsMetricsParity: once traffic has stopped, every tagged /v1/stats
// field reads the same value as its /metrics series, and each endpoint's
// count and errors match its histogram and error counter — on a single node
// and on a coordinator.
func TestStatsMetricsParity(t *testing.T) {
	for _, topo := range []string{"single", "coordinator"} {
		t.Run(topo, func(t *testing.T) {
			var slowLog syncBuffer
			cfg := Config{SlowQuery: 20 * time.Millisecond, SlowQueryWriter: &slowLog}
			var srv *Server
			var ts *httptest.Server
			if topo == "single" {
				srv, ts, _, _ = newSSBServer(t, 0.005, cfg, core.Options{SegmentRows: 4096})
			} else {
				srv, ts = newLocalCoordinator(t, cfg)
			}
			var slow atomic.Bool
			srv.testHookAdmitted = func() {
				if slow.Load() {
					time.Sleep(30 * time.Millisecond)
				}
			}

			// Traffic: queries, an append, a slow query and a 400.
			for _, q := range []string{
				`SELECT sum(lo_revenue) AS rev FROM lineorder WHERE lo_quantity > 50`,
				`SELECT d_year, sum(lo_revenue) AS rev FROM lineorder GROUP BY d_year`,
				`SELECT d_year, sum(lo_revenue) AS rev FROM lineorder GROUP BY d_year`,
			} {
				if resp, raw := post(t, ts.URL+"/v1/query", fmt.Sprintf(`{"sql": %q}`, q)); resp.StatusCode != http.StatusOK {
					t.Fatalf("query: %d %s", resp.StatusCode, raw)
				}
			}
			appendBody := `{"rows":[{"lo_custkey":0,"lo_suppkey":0,"lo_partkey":0,"lo_orderdate":0,"lo_quantity":1,"lo_discount":1,"lo_extendedprice":1,"lo_ordtotalprice":1,"lo_revenue":1,"lo_supplycost":1,"lo_tax":0}]}`
			if resp, raw := post(t, ts.URL+"/v1/tables/lineorder/append", appendBody); resp.StatusCode != http.StatusOK {
				t.Fatalf("append: %d %s", resp.StatusCode, raw)
			}
			slow.Store(true)
			if resp, raw := post(t, ts.URL+"/v1/query", `{"sql": "SELECT sum(lo_revenue) AS rev FROM lineorder"}`); resp.StatusCode != http.StatusOK {
				t.Fatalf("slow query: %d %s", resp.StatusCode, raw)
			}
			slow.Store(false)
			if resp, _ := post(t, ts.URL+"/v1/query", `{"bogus": 1}`); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("bad request: status %d, want 400", resp.StatusCode)
			}
			// A handler records its latency after its response is out.
			waitFor(t, "the last query's observation", func() bool {
				return srv.StatsSnapshot().Endpoints["query"].Count == 5
			})

			var st Stats
			if err := json.Unmarshal(get(t, ts.URL+"/v1/stats"), &st); err != nil {
				t.Fatal(err)
			}
			metrics := metricSamples(t, string(get(t, ts.URL+"/metrics")))
			want := make(map[string]float64)
			taggedSamples(reflect.ValueOf(st), want)
			if st.SlowQueries != 1 || st.Endpoints["query"].Errors != 1 || st.Admission.Admitted == 0 || st.DB.RowsScanned == 0 {
				t.Fatalf("traffic did not land: slow %d, query errors %d, admitted %d, rows scanned %d",
					st.SlowQueries, st.Endpoints["query"].Errors, st.Admission.Admitted, st.DB.RowsScanned)
			}
			if topo == "coordinator" && want["astore_shard_scatters_total"] == 0 {
				t.Fatalf("coordinator stats carry no scatters: %+v", st.Shard)
			}
			for series, v := range want {
				got, ok := metrics[series]
				switch {
				case !ok:
					t.Errorf("/metrics has no %s (the /v1/stats field reads %v)", series, v)
				case series == "astore_uptime_seconds":
					if got < v {
						t.Errorf("uptime went backwards: /v1/stats %v, later /metrics %v", v, got)
					}
				case got != v:
					t.Errorf("%s: /metrics %v, /v1/stats %v", series, got, v)
				}
			}
			for _, ep := range []string{"query", "append"} {
				es := st.Endpoints[ep]
				count := metrics[fmt.Sprintf(`astore_http_request_duration_seconds_count{endpoint=%q}`, ep)]
				errs := metrics[fmt.Sprintf(`astore_http_request_errors_total{endpoint=%q}`, ep)]
				if float64(es.Count) != count || float64(es.Errors) != errs {
					t.Errorf("endpoint %s: /v1/stats count %d errors %d, /metrics count %v errors %v",
						ep, es.Count, es.Errors, count, errs)
				}
			}
		})
	}
}

// TestSlowLogPlanHitUnderConcurrency: the slow-query log's plan_hit is the
// request's own — a statement the cache has never seen logs false even
// while other requests hit the cache beside it.
func TestSlowLogPlanHitUnderConcurrency(t *testing.T) {
	var buf syncBuffer
	_, ts, _, _ := newSSBServer(t, 0.005,
		Config{MaxInFlight: 8, SlowQuery: time.Nanosecond, SlowQueryWriter: &buf},
		core.Options{SegmentRows: 4096})
	body := func(sql string) string { return fmt.Sprintf(`{"sql": %q}`, sql) }

	var warm []string
	for _, id := range []string{"Q1.1", "Q2.1", "Q3.1", "Q4.1"} {
		q := ssb.QueriesSQL()[id]
		warm = append(warm, q)
		if resp, raw := post(t, ts.URL+"/v1/query", body(q)); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up %s: %d %s", id, resp.StatusCode, raw)
		}
	}
	warmedLines := strings.Count(buf.String(), "\n")

	const goroutines, rounds = 8, 5
	fresh := make(map[string]bool)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		var stmts []string
		for i := 0; i < rounds; i++ {
			q := fmt.Sprintf("SELECT sum(lo_revenue) AS rev FROM lineorder WHERE lo_quantity < %d", 100+g*rounds+i)
			fresh[q] = true
			stmts = append(stmts, warm[(g+i)%len(warm)], q)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range stmts {
				if status, raw, err := postNB(ts.URL+"/v1/query", body(q)); err != nil || status != http.StatusOK {
					errs <- fmt.Errorf("query %q: %d %s %v", q, status, raw, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")[warmedLines:]
	if len(lines) != goroutines*rounds*2 {
		t.Fatalf("logged %d lines, want %d", len(lines), goroutines*rounds*2)
	}
	for _, line := range lines {
		var e obs.SlowEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		if e.PlanHit == fresh[e.Query] {
			t.Errorf("plan_hit %v for a %s statement: %s", e.PlanHit, map[bool]string{true: "never-seen", false: "warm"}[fresh[e.Query]], e.Query)
		}
	}
}
