package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/db"
	"astore/internal/storage"
)

// The two request decoders that take arbitrary client bodies, fuzzed in
// process against one small SSB server per target (reused across
// iterations, so appended rows accumulate). Every body must be answered
// 200 or 4xx, never 5xx and never a panic, allocating no more than a fixed
// budget plus a bounded amount per input byte.

// fuzzServer mounts a server over SSB at SF 0.001 whose lineorder seals
// 1024-row segments, and returns its handler and fact table. Aggregation
// arrays are capped at 4096 cells, so what a statement may legitimately
// allocate is bounded by the data rather than by its group-by domain.
func fuzzServer(f *testing.F, cfg Config) (http.Handler, *storage.Table) {
	data := ssb.Generate(ssb.Config{SF: 0.001, Seed: 1})
	d, err := db.Open(data.DB, core.Options{SegmentRows: 1024, MaxArrayGroups: 1 << 12})
	if err != nil {
		f.Fatal(err)
	}
	return New(d, cfg).Handler(), data.Lineorder
}

// fuzzPost serves one POST of body to path and fails t on a status other
// than 200 or 4xx, or on allocating more than fixed + perByte·len(body).
func fuzzPost(t *testing.T, h http.Handler, path string, body []byte, fixed uint64) *httptest.ResponseRecorder {
	const perByte = 512
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code >= 500) {
		t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > fixed+perByte*uint64(len(body)) {
		t.Fatalf("a %d-byte body allocated %d bytes", len(body), alloc)
	}
	return rec
}

// fuzzSeeds adds each body, its truncations at a third and a half, and
// the body with its first number quoted (a type confusion).
func fuzzSeeds(f *testing.F, bodies ...string) {
	for _, b := range bodies {
		f.Add([]byte(b))
		f.Add([]byte(b[:len(b)/3]))
		f.Add([]byte(b[:len(b)/2]))
		if i := bytes.IndexAny([]byte(b), "0123456789"); i >= 0 {
			f.Add([]byte(b[:i] + `"` + b[i:i+1] + `"` + b[i+1:]))
		}
	}
}

// FuzzAppendBody posts to /v1/tables/lineorder/append. A batch is visible
// all or nothing, so the table must grow by exactly the count a 200
// reports, and not at all on any 4xx.
func FuzzAppendBody(f *testing.F) {
	row := `{"lo_custkey": 0, "lo_suppkey": 0, "lo_partkey": 0, "lo_orderdate": 0, "lo_quantity": 30, "lo_discount": 0, "lo_extendedprice": 100, "lo_ordtotalprice": 100, "lo_revenue": 100, "lo_supplycost": 50, "lo_tax": 1}`
	fuzzSeeds(f,
		`{"rows": [`+row+`]}`,
		`{"rows": [`+row+`, `+row+`]}`,
		`{"rows": [`+row+`, {"lo_custkey": -1}]}`,
		`{"rows": [{"lo_custkey": 2147483648, "lo_quantity": 5.5}]}`,
		`{"rows": [{"lo_custkey": "red", "lo_unknown": 1}]}`,
		`{"rows": []}`,
		`{"rows": {}}`,
		`{"rows": [null, 1, "x", []]}`,
		`{"rows": [`+row+`], "extra": true}`,
	)
	h, fact := fuzzServer(f, Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		n0 := fact.NumRows()
		rec := fuzzPost(t, h, "/v1/tables/lineorder/append", body, 2<<20)
		var reply struct {
			Count int `json:"count"`
		}
		_ = json.Unmarshal(rec.Body.Bytes(), &reply)
		want := 0
		if rec.Code == http.StatusOK {
			want = reply.Count
		}
		if grew := fact.NumRows() - n0; grew != want {
			t.Fatalf("status %d reports %d rows, the table grew by %d: %s", rec.Code, want, grew, rec.Body)
		}
	})
}

// FuzzShardExecBody posts to /v1/shard/exec on a shard worker.
func FuzzShardExecBody(f *testing.F) {
	fuzzSeeds(f,
		`{"sql": "SELECT d_year, SUM(lo_revenue) AS rev FROM lineorder GROUP BY d_year ORDER BY d_year", "shard": 0, "nshards": 1}`,
		`{"sql": "SELECT d_year, SUM(lo_revenue) AS rev FROM lineorder GROUP BY d_year", "shard": 1, "nshards": 2, "expect_data_version": 7}`,
		`{"sql": "SELECT count(*) AS n FROM lineorder WHERE lo_quantity < 25", "shard": 3, "nshards": 2}`,
		`{"sql": "SELECT count(*) AS n FROM lineorder", "shard": -1, "nshards": -4}`,
		`{"sql": "SELEKT"}`,
		`{"nshards": 1}`,
		`{"sql": 1, "shard": "0", "nshards": 1.5}`,
		`{"sql": "SELECT count(*) AS n FROM lineorder", "bogus": 1}`,
	)
	h, _ := fuzzServer(f, Config{ShardWorker: true})
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, h, "/v1/shard/exec", body, 8<<20)
	})
}
