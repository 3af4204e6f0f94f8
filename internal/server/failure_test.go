package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/storage"
)

// checkNoPins asserts no table of the catalog holds a snapshot pin.
func checkNoPins(t *testing.T, cat *storage.Database) {
	t.Helper()
	for _, tab := range cat.Tables() {
		if pins := tab.Pins(); pins != 0 {
			t.Errorf("table %s: %d leaked snapshot pins", tab.Name, pins)
		}
	}
}

const countSQL = `{"sql": "SELECT count(*) AS n FROM lineorder"}`

// postNB is post for spawned goroutines: it reports transport errors as a
// return value instead of t.Fatal (which must not run off the test
// goroutine).
func postNB(url, body string) (status int, raw []byte, err error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// TestOverloadReturns503: with both slots held and the wait queue full, the
// next query is rejected immediately with 503 and a Retry-After hint.
func TestOverloadReturns503(t *testing.T) {
	srv, ts, data, _ := newSSBServer(t, 0.001,
		Config{MaxInFlight: 1, MaxQueue: 1, QueueWait: 10 * time.Second},
		core.Options{})
	gate := make(chan struct{})
	srv.testHookAdmitted = func() { <-gate }

	var wg sync.WaitGroup
	status := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, err := postNB(ts.URL+"/v1/query", countSQL)
			if err != nil {
				t.Error(err)
				return
			}
			status[i] = code
		}(i)
	}
	// Wait until one query holds the slot and one waits in the queue.
	waitFor(t, "slot held and queue full", func() bool {
		return srv.adm.inFlight() == 1 && srv.adm.waiting() == 1
	})

	// The third query finds the queue full: immediate 503 + Retry-After.
	resp, raw := post(t, ts.URL+"/v1/query", countSQL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if !strings.Contains(string(raw), "capacity") {
		t.Errorf("error body = %s", raw)
	}

	close(gate)
	wg.Wait()
	if status[0] != http.StatusOK || status[1] != http.StatusOK {
		t.Errorf("held queries finished with %v, want 200s", status)
	}
	if st := srv.StatsSnapshot(); st.Admission.Rejected != 1 || st.Admission.Admitted != 2 || st.Admission.Queued != 1 {
		t.Errorf("admission stats = %+v", st.Admission)
	}
	checkNoPins(t, data.DB)
}

// TestQueueWaitExpiryReturns503: a queued query that cannot get a slot
// within QueueWait is rejected with 503 rather than waiting forever.
func TestQueueWaitExpiryReturns503(t *testing.T) {
	srv, ts, data, _ := newSSBServer(t, 0.001,
		Config{MaxInFlight: 1, MaxQueue: 4, QueueWait: 20 * time.Millisecond},
		core.Options{})
	gate := make(chan struct{})
	srv.testHookAdmitted = func() { <-gate }

	done := make(chan int, 1)
	go func() {
		code, _, err := postNB(ts.URL+"/v1/query", countSQL)
		if err != nil {
			t.Error(err)
		}
		done <- code
	}()
	waitFor(t, "slot held", func() bool { return srv.adm.inFlight() == 1 })

	resp, raw := post(t, ts.URL+"/v1/query", countSQL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 after queue wait: %s", resp.StatusCode, raw)
	}
	close(gate)
	if code := <-done; code != http.StatusOK {
		t.Errorf("held query finished with %d", code)
	}
	checkNoPins(t, data.DB)
}

// TestClientDisconnectReleasesPins: a client that goes away mid-scan cancels
// the query at the next batch boundary, and every snapshot pin is released.
func TestClientDisconnectReleasesPins(t *testing.T) {
	// Small batches: many cancellation checkpoints per query.
	srv, ts, data, _ := newSSBServer(t, 0.02, Config{}, core.Options{BatchRows: 128})
	// The admitted query is held until the client has gone away, so it can
	// never finish (and answer 200) before the disconnect.
	gate := make(chan struct{})
	admitted := make(chan struct{}, 1)
	srv.testHookAdmitted = func() {
		select {
		case admitted <- struct{}{}:
		default:
		}
		<-gate
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/query",
		strings.NewReader(fmt.Sprintf(`{"sql": %q}`, ssb.QueriesSQL()["Q3.1"])))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request succeeded with status %d despite disconnect", resp.StatusCode)
		}
		errc <- err
	}()

	<-admitted // the query holds its slot
	cancel()   // client disconnects
	err = <-errc
	close(gate) // the query runs on, into the disconnect
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error = %v, want context canceled", err)
	}
	// The handler observes the disconnect at a batch boundary and unwinds,
	// releasing the view's pins on every table.
	waitFor(t, "handler to unwind", func() bool { return srv.adm.inFlight() == 0 })
	waitFor(t, "pins to drain", func() bool {
		for _, tab := range data.DB.Tables() {
			if tab.Pins() != 0 {
				return false
			}
		}
		return true
	})
	checkNoPins(t, data.DB)
}

// TestGracefulShutdownDrains: Shutdown lets the in-flight query finish (and
// deliver its result) while new queries and healthz are turned away.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, ts, data, d := newSSBServer(t, 0.001, Config{}, core.Options{})
	gate := make(chan struct{})
	admitted := make(chan struct{}, 1)
	srv.testHookAdmitted = func() {
		select {
		case admitted <- struct{}{}:
		default:
		}
		<-gate
	}

	want, err := d.RunSQL(context.Background(), "SELECT count(*) AS n FROM lineorder")
	if err != nil {
		t.Fatal(err)
	}

	inflight := make(chan queryResp, 1)
	go func() {
		code, raw, err := postNB(ts.URL+"/v1/query", countSQL)
		var qr queryResp
		if err == nil && code == http.StatusOK {
			_ = json.Unmarshal(raw, &qr)
		}
		inflight <- qr
	}()
	<-admitted

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	waitFor(t, "server to start draining", func() bool { return srv.closing.Load() })

	// New queries are rejected while draining...
	resp, raw := post(t, ts.URL+"/v1/query", countSQL)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(raw), "shutting down") {
		t.Fatalf("query while draining: %d %s", resp.StatusCode, raw)
	}
	// ... and healthz reports draining with 503 so balancers fail over.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("healthz while draining = %d %q", hresp.StatusCode, h.Status)
	}

	// Release the in-flight query: it completes with the correct result,
	// then Shutdown returns.
	close(gate)
	got := <-inflight
	if got.RowCount != 1 || len(got.Rows) != 1 {
		t.Fatalf("in-flight query result = %+v", got)
	}
	if int64(got.Rows[0][0].(float64)) != int64(want.Rows[0].Aggs[0]) {
		t.Errorf("in-flight count = %v, want %v", got.Rows[0][0], want.Rows[0].Aggs[0])
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	checkNoPins(t, data.DB)
}

// TestConcurrentServingWithWriter is the serving acceptance scenario: 8
// concurrent queries against MaxInFlight=2 with a bounded queue while a
// writer appends over HTTP — the 4 that fit the system succeed with correct
// snapshot-isolated results, the overflow gets 503, and shutdown leaves no
// snapshot pin behind. EXPLAIN requests (which skip admission) plan beside
// the same writer and must read only pinned state, and count(*) queries
// beside it must see every append batch whole or not at all. Run it under
// -race.
func TestConcurrentServingWithWriter(t *testing.T) {
	srv, ts, data, d := newSSBServer(t, 0.01,
		Config{MaxInFlight: 2, MaxQueue: 2, QueueWait: 10 * time.Second},
		core.Options{BatchRows: 4096})
	gate := make(chan struct{})
	srv.testHookAdmitted = func() { <-gate }

	// Q1.2 filters lo_discount BETWEEN 4 AND 6; the writer appends rows
	// with lo_discount=0, so the revenue result is invariant under the
	// concurrent ingest and every successful query must return exactly it.
	sqlText := ssb.QueriesSQL()["Q1.2"]
	want, err := d.RunSQL(context.Background(), sqlText)
	if err != nil {
		t.Fatal(err)
	}
	_, wantRows := normalizedRows(t, want)
	n0 := data.Lineorder.NumRows()

	// Writer: live ingest through the append endpoint, concurrent with
	// everything below. It appends at least minBatches batches, and goes on
	// until the explainers and counters below are done, so every plan they
	// render and every count they read is made beside appends.
	const minBatches, rowsPerBatch = 20, 5
	appendRow := `{"lo_custkey": 0, "lo_suppkey": 0, "lo_partkey": 0, "lo_orderdate": 0,
		"lo_quantity": 30, "lo_discount": 0, "lo_extendedprice": 100, "lo_ordtotalprice": 100,
		"lo_revenue": 100, "lo_supplycost": 50, "lo_tax": 1}`
	var batches atomic.Int64
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		rows := strings.Repeat(appendRow+",", rowsPerBatch-1) + appendRow
		for i := 0; ; i++ {
			if i >= minBatches {
				select {
				case <-stop:
					writerDone <- nil
					return
				default:
				}
			}
			code, raw, err := postNB(ts.URL+"/v1/tables/lineorder/append", `{"rows": [`+rows+`]}`)
			if err != nil {
				writerDone <- err
				return
			}
			if code != http.StatusOK {
				writerDone <- fmt.Errorf("append batch %d: %d %s", i, code, raw)
				return
			}
			batches.Add(1)
		}
	}()

	// Explainers: EXPLAIN skips admission, so these plan beside the writer
	// while the query waves below wait.
	const explainers, explains = 2, 40
	explainErrs := make(chan error, explainers)
	var explainWG sync.WaitGroup
	for e := 0; e < explainers; e++ {
		explainWG.Add(1)
		go func() {
			defer explainWG.Done()
			for i := 0; i < explains; i++ {
				q := []string{"Q1.1", "Q1.2", "Q1.3"}[i%3]
				body := fmt.Sprintf(`{"sql": %q}`, "EXPLAIN "+ssb.QueriesSQL()[q])
				code, raw, err := postNB(ts.URL+"/v1/query", body)
				if err == nil && (code != http.StatusOK || !strings.Contains(string(raw), `"fact":"lineorder"`)) {
					err = fmt.Errorf("EXPLAIN %s: %d %s", q, code, raw)
				}
				if err != nil {
					explainErrs <- err
					return
				}
			}
		}()
	}

	// First wave: 4 queries fill both slots and both queue places.
	queryBody := fmt.Sprintf(`{"sql": %q}`, sqlText)
	var wg sync.WaitGroup
	var ok200, got503, other atomic.Int64
	checkResp := func(code int, raw []byte) {
		switch code {
		case http.StatusOK:
			var qr queryResp
			if err := json.Unmarshal(raw, &qr); err != nil {
				t.Errorf("bad 200 body: %v", err)
				other.Add(1)
				return
			}
			if !reflect.DeepEqual(qr.Rows, wantRows) {
				t.Errorf("query rows = %v, want %v", qr.Rows, wantRows)
				other.Add(1)
				return
			}
			ok200.Add(1)
		case http.StatusServiceUnavailable:
			got503.Add(1)
		default:
			other.Add(1)
			t.Errorf("unexpected status %d: %s", code, raw)
		}
	}
	launch := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				code, raw, err := postNB(ts.URL+"/v1/query", queryBody)
				if err != nil {
					t.Error(err)
					other.Add(1)
					return
				}
				checkResp(code, raw)
			}()
		}
	}
	launch(4)
	waitFor(t, "2 executing + 2 queued", func() bool {
		return srv.adm.inFlight() == 2 && srv.adm.waiting() == 2
	})

	// Second wave: 4 more concurrent queries overflow the queue -> 503.
	launch(4)
	waitFor(t, "overflow rejections", func() bool { return got503.Load() >= 4 })

	// Release the held slots; the first wave drains and succeeds.
	close(gate)
	wg.Wait()
	if ok200.Load() != 4 || got503.Load() != 4 || other.Load() != 0 {
		t.Fatalf("outcomes: %d ok, %d overloaded, %d other; want 4/4/0",
			ok200.Load(), got503.Load(), other.Load())
	}

	// Counters: with the slots free, count(*) posters race the writer. An
	// append batch is published whole, so every count is n0 plus whole
	// batches.
	const counters, counts = 2, 100
	var countWG sync.WaitGroup
	for range counters {
		countWG.Add(1)
		go func() {
			defer countWG.Done()
			for range counts {
				code, raw, err := postNB(ts.URL+"/v1/query", countSQL)
				var qr queryResp
				if err == nil && code == http.StatusOK {
					err = json.Unmarshal(raw, &qr)
				}
				if err != nil || code != http.StatusOK || len(qr.Rows) != 1 {
					t.Errorf("count(*) beside the writer: %d %s %v", code, raw, err)
					return
				}
				if n := int(qr.Rows[0][0].(float64)); n < n0 || (n-n0)%rowsPerBatch != 0 {
					t.Errorf("count(*) = %d, want %d plus whole batches of %d: a batch was visible in part", n, n0, rowsPerBatch)
					return
				}
			}
		}()
	}
	countWG.Wait()
	explainWG.Wait()
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-explainErrs:
		t.Fatal(err)
	default:
	}

	// All appends are visible to a fresh count, and only they are.
	resp, raw := post(t, ts.URL+"/v1/query", countSQL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final count: %d %s", resp.StatusCode, raw)
	}
	var qr queryResp
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if want := n0 + int(batches.Load())*rowsPerBatch; int(qr.Rows[0][0].(float64)) != want {
		t.Errorf("final count = %v, want %d", qr.Rows[0][0], want)
	}

	// Shutdown drains cleanly and leaves zero snapshot pins.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	checkNoPins(t, data.DB)

	if st := srv.StatsSnapshot(); st.Admission.Rejected < 4 {
		t.Errorf("admission stats = %+v", st.Admission)
	}
	if err := data.DB.ValidateAIR(); err != nil {
		t.Fatal(err)
	}
}
