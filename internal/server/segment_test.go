package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"astore/internal/core"
)

// TestSegmentedServing exercises the HTTP layer over a segmented catalog:
// live ingest appends to the fact table's tail, append responses carry the
// new data version (read-your-writes via polling), queries keep serving
// snapshot-isolated results, and /v1/stats reports the zone-map pruning
// counters without plan-cache churn from the appends.
func TestSegmentedServing(t *testing.T) {
	_, ts, data, d := newSSBServer(t, 0.01, Config{MaxInFlight: 2}, core.Options{SegmentRows: 4096})
	if data.Lineorder.SegmentTarget() == 0 {
		t.Fatal("lineorder not segmented")
	}

	sql := `SELECT d_year, sum(lo_revenue) AS rev FROM lineorder, date
	        WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year`
	runQuery := func() queryResp {
		resp, body := post(t, ts.URL+"/v1/query", fmt.Sprintf(`{"sql": %q}`, sql))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d: %s", resp.StatusCode, body)
		}
		var qr queryResp
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		return qr
	}
	runQuery() // warm the plan cache

	// Live ingest: append valid rows and track data_version advancing.
	appendBody := `{"rows": [
		{"lo_custkey": 0, "lo_suppkey": 0, "lo_partkey": 0, "lo_orderdate": 0,
		 "lo_quantity": 1, "lo_extendedprice": 100, "lo_discount": 0,
		 "lo_ordtotalprice": 100, "lo_revenue": 100, "lo_supplycost": 10, "lo_tax": 0}
	]}`
	var lastDV uint64
	for i := 0; i < 5; i++ {
		resp, body := post(t, ts.URL+"/v1/tables/lineorder/append", appendBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append status %d: %s", resp.StatusCode, body)
		}
		var ar struct {
			Count       int    `json:"count"`
			DataVersion uint64 `json:"data_version"`
		}
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		if ar.Count != 1 {
			t.Fatalf("append count = %d", ar.Count)
		}
		if ar.DataVersion == 0 {
			t.Fatal("append response lacks data_version")
		}
		if ar.DataVersion <= lastDV {
			t.Fatalf("data_version did not advance: %d -> %d", lastDV, ar.DataVersion)
		}
		lastDV = ar.DataVersion
		runQuery()
	}
	if got := data.Lineorder.DataVersion(); got != lastDV {
		t.Fatalf("live DataVersion %d != last append response %d", got, lastDV)
	}

	// Appends must not have churned the plan cache (append-stable plans).
	st := d.Stats()
	if st.PlanStale != 0 || st.PlanEvictions != 0 {
		t.Errorf("plan cache churned under ingest: stale=%d evictions=%d", st.PlanStale, st.PlanEvictions)
	}
	if st.PlanHits < 5 {
		t.Errorf("PlanHits = %d, want >= 5", st.PlanHits)
	}

	// /v1/stats carries the segment counters.
	resp, body := post(t, ts.URL+"/v1/query", `{"sql": "SELECT sum(lo_revenue) AS r FROM lineorder"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	hres, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var stats Stats
	if err := json.NewDecoder(hres.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.DB.SegmentsTotal == 0 {
		t.Errorf("/v1/stats segments_total = 0, want > 0")
	}
	if stats.DB.SegmentsPruned > stats.DB.SegmentsTotal {
		t.Errorf("segments_pruned %d > segments_total %d", stats.DB.SegmentsPruned, stats.DB.SegmentsTotal)
	}
}

// TestAggCacheStatsServing: repeated identical queries over a segmented
// catalog reuse the cached plan, so the second run merges the per-segment
// partials the first run installed — and /v1/stats must report the cache
// counters moving.
func TestAggCacheStatsServing(t *testing.T) {
	_, ts, data, _ := newSSBServer(t, 0.01, Config{}, core.Options{SegmentRows: 4096})
	if data.Lineorder.SegmentTarget() == 0 {
		t.Fatal("lineorder not segmented")
	}

	body := `{"sql": "SELECT d_year, sum(lo_revenue) AS rev FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year"}`
	var results []string
	for i := 0; i < 3; i++ {
		resp, raw := post(t, ts.URL+"/v1/query", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d status %d: %s", i, resp.StatusCode, raw)
		}
		var qr struct {
			Rows json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatal(err)
		}
		results = append(results, string(qr.Rows))
	}
	if results[1] != results[0] || results[2] != results[0] {
		t.Fatalf("cached executions diverge:\n%s\n%s\n%s", results[0], results[1], results[2])
	}

	hres, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var stats Stats
	if err := json.NewDecoder(hres.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.DB.AggCacheMisses == 0 {
		t.Error("/v1/stats agg_cache_misses = 0 after a cold run, want > 0")
	}
	if stats.DB.AggCacheHits == 0 {
		t.Error("/v1/stats agg_cache_hits = 0 after repeated runs, want > 0")
	}
	if stats.DB.AggCacheEntries == 0 || stats.DB.AggCacheBytes == 0 {
		t.Errorf("/v1/stats agg cache empty: entries=%d bytes=%d",
			stats.DB.AggCacheEntries, stats.DB.AggCacheBytes)
	}
}
