package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/db"
	"astore/internal/query"
	"astore/internal/storage"
)

// newSSBServer generates SSB data and mounts a Server over it.
func newSSBServer(t *testing.T, sf float64, cfg Config, opt core.Options) (*Server, *httptest.Server, *ssb.Data, *db.DB) {
	t.Helper()
	data := ssb.Generate(ssb.Config{SF: sf, Seed: 1})
	d, err := db.Open(data.DB, opt)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, data, d
}

// queryResp is the decoded /v1/query response body.
type queryResp struct {
	Fact      string   `json:"fact"`
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	RowCount  int      `json:"row_count"`
	ElapsedUS int64    `json:"elapsed_us"`
}

// result rebuilds the served answer of a query with nKeys grouping
// columns, so it diffs like any engine's.
func (r queryResp) result(nKeys int) (*query.Result, error) {
	if len(r.Columns) < nKeys {
		return nil, fmt.Errorf("columns %v, want %d grouping columns", r.Columns, nKeys)
	}
	res := &query.Result{GroupCols: r.Columns[:nKeys], AggNames: r.Columns[nKeys:]}
	for _, vals := range r.Rows {
		if len(vals) != len(r.Columns) {
			return nil, fmt.Errorf("row %v under columns %v", vals, r.Columns)
		}
		var row query.Row
		for i, v := range vals {
			switch v := v.(type) {
			case string:
				row.Keys = append(row.Keys, query.StrValue(v))
			case float64:
				if i < nKeys {
					row.Keys = append(row.Keys, query.NumValue(v))
				} else {
					row.Aggs = append(row.Aggs, v)
				}
			default:
				return nil, fmt.Errorf("row %v: value %v", vals, v)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// post sends a JSON body and returns the response with its body read.
func post(t testing.TB, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// normalizedRows marshals a query.Result through the same JSON path the
// server uses and decodes it back, so expected and served rows compare as
// decoded JSON ([][]any with float64 numbers).
func normalizedRows(t *testing.T, res *query.Result) (cols []string, rows [][]any) {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var dec struct {
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}
	if err := json.Unmarshal(b, &dec); err != nil {
		t.Fatal(err)
	}
	return dec.Columns, dec.Rows
}

func TestQueryEndToEndSQLAndJSON(t *testing.T) {
	_, ts, _, d := newSSBServer(t, 0.01, Config{}, core.Options{})

	sqlText := ssb.QueriesSQL()["Q2.1"]
	want, err := d.RunSQL(context.Background(), sqlText)
	if err != nil {
		t.Fatal(err)
	}
	wantCols, wantRows := normalizedRows(t, want)

	// SQL body.
	body, _ := json.Marshal(map[string]any{"sql": sqlText})
	resp, raw := post(t, ts.URL+"/v1/query", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sql query: status %d: %s", resp.StatusCode, raw)
	}
	var got queryResp
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("response is not valid JSON: %v\n%s", err, raw)
	}
	if got.Fact != "lineorder" {
		t.Errorf("fact = %q", got.Fact)
	}
	if !reflect.DeepEqual(got.Columns, wantCols) {
		t.Errorf("columns = %v, want %v", got.Columns, wantCols)
	}
	if got.RowCount != len(wantRows) || !reflect.DeepEqual(got.Rows, wantRows) {
		t.Errorf("rows mismatch: got %d rows %v, want %d rows %v",
			got.RowCount, got.Rows, len(wantRows), wantRows)
	}

	// Repeating the statement hits the plan cache; stats must show serving
	// activity and the second-execution hit.
	resp, raw = post(t, ts.URL+"/v1/query", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat query: status %d", resp.StatusCode)
	}
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.DB.PlanHits < 1 {
		t.Errorf("stats plan_hits = %d, want >= 1: %+v", st.DB.PlanHits, st.DB)
	}
	if ep := st.Endpoints["query"]; ep.Count < 2 || ep.Errors != 0 {
		t.Errorf("query endpoint stats = %+v", ep)
	}

	// Healthz is alive.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", hresp.StatusCode)
	}
}

func TestQueryBadRequests(t *testing.T) {
	_, ts, _, _ := newSSBServer(t, 0.001, Config{}, core.Options{})
	cases := []struct {
		name string
		body string
		want int
		msg  string
	}{
		{"empty", `{}`, 400, `must carry "sql"`},
		{"query-field", `{"query": {"aggs": [{"kind": "count"}]}}`, 400, "unknown field"},
		{"both", `{"sql": "SELECT count(*) AS n FROM lineorder", "query": {"aggs": [{"kind": "count"}]}}`, 400, "unknown field"},
		{"not-json", `{`, 400, "bad request body"},
		{"unknown-field", `{"sqll": "x"}`, 400, "unknown field"},
		{"bad-sql", `{"sql": "SELEC"}`, 400, "expected SELECT"},
		{"trailing-garbage", `{"sql": "SELECT count(*) AS n FROM lineorder; DROP TABLE lineorder"}`, 400, "statement terminator"},
		{"unknown-column", `{"sql": "SELECT count(*) AS n FROM lineorder WHERE no_such_col = 1"}`, 400, "no_such_col"},
		{"unknown-agg-kind", `{"sql": "SELECT median(lo_revenue) AS m FROM lineorder"}`, 400, `expected FROM at "("`},
		{"bad-pred-op", `{"sql": "SELECT count(*) AS n FROM lineorder WHERE d_year ~ 1"}`, 400, "unexpected character '~'"},
		{"bad-expr", `{"sql": "SELECT sum(lo_revenue +) AS r FROM lineorder"}`, 400, "expected expression"},
		{"no-aggs", `{"sql": "SELECT d_year FROM lineorder GROUP BY d_year"}`, 400, "no aggregates"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := post(t, ts.URL+"/v1/query", tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.want, raw)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("error body is not JSON: %s", raw)
			}
			if !strings.Contains(e.Error, tc.msg) {
				t.Errorf("error %q does not mention %q", e.Error, tc.msg)
			}
		})
	}

	// Wrong method and unknown path.
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query status = %d", resp.StatusCode)
	}
}

// colorCatalog is a two-table star small enough to reason about appends.
func colorCatalog(t *testing.T) (*storage.Database, *storage.Table) {
	t.Helper()
	dim := storage.NewTable("color")
	dim.MustAddColumn("color_name", storage.NewStrCol([]string{"red", "green"}))
	fact := storage.NewTable("sales")
	fact.MustAddColumn("color_fk", storage.NewInt32Col([]int32{0, 1, 0}))
	fact.MustAddColumn("amount", storage.NewInt64Col([]int64{10, 20, 30}))
	fact.MustAddFK("color_fk", dim)
	cat := storage.NewDatabase()
	cat.MustAdd(fact)
	cat.MustAdd(dim)
	return cat, fact
}

func TestAppendEndpoint(t *testing.T) {
	cat, fact := colorCatalog(t)
	d, err := db.Open(cat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sumSQL := `{"sql": "SELECT color_name, sum(amount) AS total FROM sales GROUP BY color_name ORDER BY color_name"}`

	// Append two valid rows.
	resp, raw := post(t, ts.URL+"/v1/tables/sales/append",
		`{"rows": [{"color_fk": 1, "amount": 5}, {"color_fk": 0, "amount": 7}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d: %s", resp.StatusCode, raw)
	}
	var ar appendResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Table != "sales" || ar.Count != 2 || !reflect.DeepEqual(ar.Rows, []int{3, 4}) {
		t.Fatalf("append response = %+v", ar)
	}
	if ar.DataVersion != fact.DataVersion() {
		t.Errorf("append data_version = %d, live version = %d", ar.DataVersion, fact.DataVersion())
	}

	// The appended rows are visible to new queries.
	resp, raw = post(t, ts.URL+"/v1/query", sumSQL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after append: %d: %s", resp.StatusCode, raw)
	}
	var qr queryResp
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	// red: 10+30+7=47, green: 20+5=25.
	want := [][]any{{"green", float64(25)}, {"red", float64(47)}}
	if !reflect.DeepEqual(qr.Rows, want) {
		t.Fatalf("rows after append = %v, want %v", qr.Rows, want)
	}

	// Failure paths: a rejected batch answers 400 naming the row and the
	// expected columns, and inserts nothing, not even the rows before the
	// bad one.
	bad := []struct {
		name, url, body string
		status          int
		msg             string
	}{
		{"unknown-table", "/v1/tables/nope/append", `{"rows": [{"x": 1}]}`, 404, "no table"},
		{"unknown-column", "/v1/tables/sales/append", `{"rows": [{"colour_fk": 1, "amount": 5}]}`, 400, "unknown column"},
		{"missing-column", "/v1/tables/sales/append", `{"rows": [{"amount": 5}]}`, 400, "missing column"},
		{"type-mismatch", "/v1/tables/sales/append", `{"rows": [{"color_fk": "red", "amount": 5}]}`, 400, "wants an integer"},
		{"float-for-int", "/v1/tables/sales/append", `{"rows": [{"color_fk": 0, "amount": 5.5}]}`, 400, "wants an integer"},
		{"fk-out-of-range", "/v1/tables/sales/append", `{"rows": [{"color_fk": 99, "amount": 5}]}`, 400, "out of range"},
		{"int32-overflow", "/v1/tables/sales/append", `{"rows": [{"color_fk": 2147483648, "amount": 5}]}`, 400, "overflows int32"},
		{"no-rows", "/v1/tables/sales/append", `{"rows": []}`, 400, "no rows"},
		{"partial-batch", "/v1/tables/sales/append",
			`{"rows": [{"color_fk": 0, "amount": 1}, {"color_fk": -1, "amount": 2}]}`, 400, "row 1"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			rows, version := fact.NumRows(), fact.DataVersion()
			resp, raw := post(t, ts.URL+tc.url, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			var e struct {
				Error   string   `json:"error"`
				Columns []string `json:"columns"`
			}
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(e.Error, tc.msg) {
				t.Errorf("error %q does not mention %q", e.Error, tc.msg)
			}
			if tc.status == http.StatusBadRequest && tc.name != "no-rows" && !reflect.DeepEqual(e.Columns, fact.ColumnNames()) {
				t.Errorf("columns = %v, want %v", e.Columns, fact.ColumnNames())
			}
			if fact.NumRows() != rows || fact.DataVersion() != version {
				t.Errorf("rejected batch changed the table: rows %d→%d, version %d→%d", rows, fact.NumRows(), version, fact.DataVersion())
			}
		})
	}

	// AIR still holds after everything.
	if err := cat.ValidateAIR(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryTimeoutReturns504(t *testing.T) {
	// Tiny scan batches make the deadline observable mid-scan; the hook
	// holds the admitted query past its 1 ms deadline so the test does not
	// depend on scan speed.
	srv, ts, _, _ := newSSBServer(t, 0.02, Config{}, core.Options{BatchRows: 64})
	srv.testHookAdmitted = func() { time.Sleep(20 * time.Millisecond) }
	body := fmt.Sprintf(`{"sql": %q, "timeout_ms": 1}`, ssb.QueriesSQL()["Q1.1"])
	resp, raw := post(t, ts.URL+"/v1/query", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte("deadline")) {
		t.Errorf("error body = %s", raw)
	}
}

func TestHugeTimeoutIsClamped(t *testing.T) {
	// A timeout_ms large enough to overflow time.Duration must clamp to
	// maxTimeout, not wrap negative and kill the query.
	_, ts, _, _ := newSSBServer(t, 0.001, Config{}, core.Options{})
	resp, raw := post(t, ts.URL+"/v1/query",
		`{"sql": "SELECT count(*) AS n FROM lineorder", "timeout_ms": 10000000000000000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", resp.StatusCode, raw)
	}
}

func TestShutdownBeforeListenAndServe(t *testing.T) {
	// A shutdown that wins the race with the listener starting must not
	// leave ListenAndServe serving 503s forever.
	cat, _ := colorCatalog(t)
	d, err := db.Open(cat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ListenAndServe after Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndServe did not return after Shutdown")
	}
}

func TestPanicRecovery(t *testing.T) {
	cat, _ := colorCatalog(t)
	d, err := db.Open(cat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, Config{})
	var fired atomic.Bool
	srv.testHookAdmitted = func() {
		if fired.CompareAndSwap(false, true) {
			panic("boom")
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, raw := post(t, ts.URL+"/v1/query", `{"sql": "SELECT count(*) AS n FROM sales"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", resp.StatusCode, raw)
	}
	if st := srv.StatsSnapshot(); st.Panics != 1 || st.Endpoints["query"].Errors != 1 {
		t.Errorf("stats after panic = %+v", st)
	}
	// The slot was released despite the panic (release is deferred), so the
	// server still serves.
	resp, raw = post(t, ts.URL+"/v1/query", `{"sql": "SELECT count(*) AS n FROM sales"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after recovery = %d: %s", resp.StatusCode, raw)
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
