package server

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"astore/internal/baseline"
	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/db"
	"astore/internal/query"
	"astore/internal/shard"
	"astore/internal/storage"
	"astore/internal/testutil"
)

// newShardTopology mounts nWorkers worker servers plus a coordinator server
// in the replicated topology: every process generates the same SSB dataset
// (same seed), workers scan canonical slices, the coordinator merges. The
// coordinator's own DB is also returned so tests can compute single-node
// oracles over identical data.
func newShardTopology(t *testing.T, nWorkers int) (coordTS *httptest.Server, workerTS []*httptest.Server, coordDB *db.DB, workerDBs []*db.DB) {
	return shardTopologyOver(t, nWorkers, topologyData().DB)
}

// topologyData is the dataset every process of a shard topology serves.
func topologyData() *ssb.Data { return ssb.Generate(ssb.Config{SF: 0.002, Seed: 3}) }

// shardTopologyOver is newShardTopology with the coordinator serving coord,
// a catalog holding the same rows as topologyData.
func shardTopologyOver(t testing.TB, nWorkers int, coord *storage.Database) (coordTS *httptest.Server, workerTS []*httptest.Server, coordDB *db.DB, workerDBs []*db.DB) {
	t.Helper()
	opt := core.Options{SegmentRows: 2048}
	var workers []shard.Worker
	for i := 0; i < nWorkers; i++ {
		d, err := db.Open(topologyData().DB, opt)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(New(d, Config{ShardWorker: true}).Handler())
		t.Cleanup(ts.Close)
		workerTS = append(workerTS, ts)
		workerDBs = append(workerDBs, d)
		workers = append(workers, shard.NewHTTPWorker(ts.URL, i, nWorkers, 10*time.Second))
	}
	d, err := db.Open(coord, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := shard.New(d, workers, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(d, Config{Coordinator: c}).Handler())
	t.Cleanup(ts.Close)
	return ts, workerTS, d, workerDBs
}

// TestShardExecEndpoint exercises the worker wire protocol directly: a
// shard slice request returns a decodable partial with snapshot identity.
func TestShardExecEndpoint(t *testing.T) {
	_, workerTS, _, _ := newShardTopology(t, 1)
	body, _ := json.Marshal(shard.WireRequest{
		SQL:     "SELECT d_year, SUM(lo_revenue) AS rev FROM lineorder GROUP BY d_year ORDER BY d_year",
		Shard:   0,
		NShards: 1,
	})
	resp, raw := post(t, workerTS[0].URL+"/v1/shard/exec", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var wr shard.WireResponse
	if err := json.Unmarshal(raw, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Fact != "lineorder" {
		t.Fatalf("fact %q", wr.Fact)
	}
	if wr.Domain == "" || wr.DataVersion == 0 {
		t.Fatalf("missing snapshot identity: domain %q data version %d", wr.Domain, wr.DataVersion)
	}
	if b, err := base64.StdEncoding.DecodeString(wr.Partial); err != nil || len(b) == 0 {
		t.Fatalf("partial not base64 (%v) or empty (%d bytes)", err, len(b))
	}
	if wr.Stats.RowsScanned == 0 {
		t.Fatal("worker reported no scanned rows")
	}
}

// TestShardExecVersionConflict asserts the 409 contract: a stale
// expectation is rejected with the worker's actual pinned version.
func TestShardExecVersionConflict(t *testing.T) {
	_, workerTS, _, workerDBs := newShardTopology(t, 1)
	have := workerDBs[0].Catalog().Table("lineorder").DataVersion()
	body, _ := json.Marshal(shard.WireRequest{
		SQL:               "SELECT d_year, SUM(lo_revenue) AS rev FROM lineorder GROUP BY d_year",
		NShards:           1,
		ExpectDataVersion: have + 7,
	})
	resp, raw := post(t, workerTS[0].URL+"/v1/shard/exec", string(body))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var m shard.WireMismatch
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Fact != "lineorder" || m.Want != have+7 || m.Got != have {
		t.Fatalf("mismatch body %+v (have %d)", m, have)
	}
}

// TestShardExecBadRequest: garbage SQL is a 400, missing SQL is a 400.
func TestShardExecBadRequest(t *testing.T) {
	_, workerTS, _, _ := newShardTopology(t, 1)
	for _, body := range []string{`{"sql":"SELEKT"}`, `{"nshards":1}`} {
		resp, raw := post(t, workerTS[0].URL+"/v1/shard/exec", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d: %s", body, resp.StatusCode, raw)
		}
	}
}

// TestCoordinatorServerOracle runs the SSB queries, as their SQL text,
// through the coordinator's /v1/query and checks the JSON rows against the
// hash-join oracle over identical data.
func TestCoordinatorServerOracle(t *testing.T) {
	texts := ssb.QueriesSQL()
	statement := func(q *query.Query) string { return texts[q.Name] }
	coordinator := testutil.Target{Open: func(t testing.TB, fact *storage.Table) func(*query.Query, testutil.Run) (*query.Result, error) {
		coordTS, _, _, _ := shardTopologyOver(t, 2, testutil.Catalog(fact))
		return func(q *query.Query, _ testutil.Run) (*query.Result, error) {
			resp, raw := post(t, coordTS.URL+"/v1/query", fmt.Sprintf(`{"sql":%q}`, statement(q)))
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
			}
			var got queryResp
			if err := json.Unmarshal(raw, &got); err != nil {
				return nil, err
			}
			if got.Fact != "lineorder" {
				return nil, fmt.Errorf("fact %q", got.Fact)
			}
			return got.result(len(q.GroupBy))
		}
	}}
	testutil.Matrix{
		Queries:  ssb.Queries(),
		Fixtures: []testutil.Fixture{testutil.Sealed("", 0, func() *storage.Table { return topologyData().Lineorder })},
		Targets:  []testutil.Target{coordinator},
		Oracle: func(twin *storage.Table, q *query.Query) (*query.Result, error) {
			return baseline.NewHashJoinEngine(twin).Run(q)
		},
		Render: statement,
	}.Run(t)
}

// TestCoordinatorServerExplain: EXPLAIN through a coordinator reports the
// fan-out line.
func TestCoordinatorServerExplain(t *testing.T) {
	coordTS, _, _, _ := newShardTopology(t, 2)
	resp, raw := post(t, coordTS.URL+"/v1/query",
		`{"sql":"EXPLAIN SELECT d_year, SUM(lo_revenue) AS rev FROM lineorder GROUP BY d_year"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var ex struct {
		Fact    string `json:"fact"`
		Explain string `json:"explain"`
	}
	if err := json.Unmarshal(raw, &ex); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Explain, "shards: 2, partials merged: 2") {
		t.Fatalf("explain missing fan-out line:\n%s", ex.Explain)
	}
}

// TestCoordinatorServerHealthz: the coordinator's health includes per-worker
// reachability, and a dead worker degrades the status.
func TestCoordinatorServerHealthz(t *testing.T) {
	coordTS, workerTS, _, _ := newShardTopology(t, 2)
	get := func() (int, struct {
		Status string               `json:"status"`
		Shards []shard.WorkerHealth `json:"shards"`
	}) {
		resp, err := http.Get(coordTS.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Status string               `json:"status"`
			Shards []shard.WorkerHealth `json:"shards"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}
	code, h := get()
	if code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthy topology: %d %+v", code, h)
	}
	if len(h.Shards) != 2 {
		t.Fatalf("want 2 shard entries, got %+v", h.Shards)
	}
	for _, sh := range h.Shards {
		if !sh.Reachable {
			t.Fatalf("worker %s unreachable: %+v", sh.Worker, sh)
		}
	}
	workerTS[1].Close()
	_, h = get()
	if h.Status != "degraded" {
		t.Fatalf("dead worker should degrade status: %+v", h)
	}
	if !h.Shards[0].Reachable || h.Shards[1].Reachable {
		t.Fatalf("reachability wrong: %+v", h.Shards)
	}
	if h.Shards[1].Err == "" {
		t.Fatalf("unreachable worker should carry an error: %+v", h.Shards[1])
	}
}

// TestCoordinatorServerStats: scatter-gather counters surface in /v1/stats.
func TestCoordinatorServerStats(t *testing.T) {
	coordTS, _, _, _ := newShardTopology(t, 2)
	resp, raw := post(t, coordTS.URL+"/v1/query",
		`{"sql":"SELECT d_year, SUM(lo_revenue) AS rev FROM lineorder GROUP BY d_year"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, raw)
	}
	sresp, err := http.Get(coordTS.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shard == nil {
		t.Fatal("coordinator /v1/stats missing shard section")
	}
	if st.Shard.Workers != 2 || st.Shard.Scatters < 1 || st.Shard.PartialsMerged < 2 {
		t.Fatalf("shard counters %+v", st.Shard)
	}
	// The scatter's summed row work folds into the coordinator's DB stats.
	if st.DB.Execs < 1 || st.DB.RowsScanned == 0 {
		t.Fatalf("db stats missing scatter fold: %+v", st.DB)
	}
	// And the Prometheus exposition carries the same counters.
	mresp, err := http.Get(coordTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(mb)
	for _, want := range []string{"astore_shard_scatters_total", "astore_shard_partials_merged_total"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}

// TestCoordinatorServerAppendForward: ingest against a coordinator is
// forwarded to the tail-owner worker, not applied locally.
func TestCoordinatorServerAppendForward(t *testing.T) {
	coordTS, _, coordDB, workerDBs := newShardTopology(t, 2)
	before := workerDBs[0].Catalog().Table("supplier").NumRows()
	localBefore := coordDB.Catalog().Table("supplier").NumRows()
	resp, raw := post(t, coordTS.URL+"/v1/tables/supplier/append",
		`{"rows":[{"s_name":"Supplier#X","s_city":"UNITED KI1","s_nation":"UNITED KINGDOM","s_region":"EUROPE"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var ar struct {
		Table string `json:"table"`
		Count int    `json:"count"`
	}
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Table != "supplier" || ar.Count != 1 {
		t.Fatalf("append response %+v", ar)
	}
	if got := workerDBs[0].Catalog().Table("supplier").NumRows(); got != before+1 {
		t.Fatalf("tail-owner worker rows %d, want %d", got, before+1)
	}
	if got := coordDB.Catalog().Table("supplier").NumRows(); got != localBefore {
		t.Fatalf("coordinator applied the append locally: %d rows, want %d", got, localBefore)
	}
	// A bad row is relayed with the worker's 400 intact.
	resp, raw = post(t, coordTS.URL+"/v1/tables/supplier/append",
		`{"rows":[{"s_name":"x"}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad row status %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "missing column") {
		t.Fatalf("bad row body not relayed: %s", raw)
	}
}

// TestCoordinatorServerWorkerDown: a query against a topology with an
// unreachable worker fails with a 500 naming the shard (transport errors
// are not snapshot retries).
func TestCoordinatorServerWorkerDown(t *testing.T) {
	coordTS, workerTS, _, _ := newShardTopology(t, 2)
	workerTS[1].Close()
	resp, raw := post(t, coordTS.URL+"/v1/query",
		`{"sql":"SELECT d_year, SUM(lo_revenue) AS rev FROM lineorder GROUP BY d_year"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "shard ") {
		t.Fatalf("error does not name the shard: %s", raw)
	}
}

// TestCoordinatorPreparesOnce: a /v1/query on a coordinator prepares the
// statement once for itself and once per worker; the coordinator's merge
// runs on the statement the server already prepared.
func TestCoordinatorPreparesOnce(t *testing.T) {
	srv, ts := newLocalCoordinator(t, Config{})
	before := srv.db.Stats().Prepares
	if resp, raw := post(t, ts.URL+"/v1/query", countSQL); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if got := srv.db.Stats().Prepares - before; got != 3 {
		t.Fatalf("one coordinated query prepared %d times, want 3 (coordinator + 2 workers)", got)
	}
}
