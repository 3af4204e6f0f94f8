package shard

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"astore/internal/query"
)

// TestHTTPWorkerRetriesTransient: a 503 answer is retried once after the
// backoff and the second answer is used.
func TestHTTPWorkerRetriesTransient(t *testing.T) {
	local := NewLocalWorkers(protoDB(t), 1)[0]
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		res, err := local.Exec(r.Context(), ExecRequest{SQL: protoSQL})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeWireResponse(w, res)
	}))
	defer ts.Close()
	hw := NewHTTPWorker(ts.URL, 0, 1, time.Second)
	hw.Backoff = time.Millisecond
	res, err := hw.Exec(context.Background(), ExecRequest{SQL: protoSQL})
	if err != nil {
		t.Fatal(err)
	}
	if res.DataVersion == 0 || calls.Load() != 2 {
		t.Fatalf("data version %d after %d calls, want a pinned version after 2", res.DataVersion, calls.Load())
	}
}

// TestHTTPWorkerNoRetryOnClientError: a 400 is terminal — no second call.
func TestHTTPWorkerNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad statement", http.StatusBadRequest)
	}))
	defer ts.Close()
	hw := NewHTTPWorker(ts.URL, 0, 1, time.Second)
	hw.Backoff = time.Millisecond
	if _, err := hw.Exec(context.Background(), ExecRequest{SQL: "SELECT 1"}); err == nil {
		t.Fatal("want error")
	}
	if calls.Load() != 1 {
		t.Fatalf("%d calls, want 1 (client errors are not transient)", calls.Load())
	}
}

// TestHTTPWorkerRetryExhausted: two consecutive 503s surface as an error
// after exactly two attempts.
func TestHTTPWorkerRetryExhausted(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "still draining", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	hw := NewHTTPWorker(ts.URL, 0, 1, time.Second)
	hw.Backoff = time.Millisecond
	_, err := hw.Exec(context.Background(), ExecRequest{SQL: "SELECT 1"})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("want 503 error, got %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("%d calls, want 2 (one retry)", calls.Load())
	}
}

// TestHTTPWorkerNoRetryAfterCancel: a canceled context is not retried.
func TestHTTPWorkerNoRetryAfterCancel(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		<-release
	}))
	defer ts.Close()
	defer close(release)
	hw := NewHTTPWorker(ts.URL, 0, 1, 10*time.Second)
	hw.Backoff = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := hw.Exec(ctx, ExecRequest{SQL: "SELECT 1"}); err == nil {
		t.Fatal("want error")
	}
	if calls.Load() != 1 {
		t.Fatalf("%d calls, want 1 (cancellation is not transient)", calls.Load())
	}
}

// TestCoordinatorTimeoutNamesShard: a worker that exceeds its deadline
// produces a WorkerError naming the shard, and the failure counter ticks.
func TestCoordinatorTimeoutNamesShard(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(release)
	d := protoDB(t)
	hw := NewHTTPWorker(ts.URL, 0, 1, 80*time.Millisecond)
	c, err := New(d, []Worker{hw}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.Exec(context.Background(), protoSQL)
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("want WorkerError, got %v", err)
	}
	if we.Worker != hw.Name() || !strings.Contains(err.Error(), "shard "+hw.Name()) {
		t.Fatalf("error does not name the shard: %v", err)
	}
	if c.Stats().Failures != 1 {
		t.Fatalf("failures %d, want 1", c.Stats().Failures)
	}
}

// TestCoordinatorUnreachableNamesShard: a closed listener (connection
// refused) also surfaces as a WorkerError naming the shard.
func TestCoordinatorUnreachableNamesShard(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close()
	d := protoDB(t)
	hw := NewHTTPWorker(url, 0, 1, time.Second)
	hw.Backoff = time.Millisecond
	c, err := New(d, []Worker{hw}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := hw.Ping(context.Background()); err == nil {
		t.Fatal("ping against a closed listener should fail")
	}
	_, _, err = c.Exec(context.Background(), protoSQL)
	var we *WorkerError
	if !errors.As(err, &we) || we.Worker != hw.Name() {
		t.Fatalf("want WorkerError for %s, got %v", hw.Name(), err)
	}
}

// TestHTTPWorkerReplyBounds: the coordinator looks at the status before it
// buffers a worker's body. An oversized error body is clipped, an oversized
// 200 body is ErrReplyTooLarge rather than a truncated JSON document, a
// normal reply merges to the single-node answer, and none of the three
// leaves a table pinned.
func TestHTTPWorkerReplyBounds(t *testing.T) {
	d := protoDB(t)
	local := NewLocalWorkers(d, 1)[0]
	var mode atomic.Value // "error", "huge" or "ok"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if mode.Load() == "error" {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write(bytes.Repeat([]byte("x"), 4*maxErrorReplyBytes))
			return
		}
		var req WireRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := local.Exec(r.Context(), ExecRequest{SQL: req.SQL, ExpectDataVersion: req.ExpectDataVersion})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if mode.Load() == "huge" {
			// Leading whitespace keeps the body valid JSON: cut at the
			// limit it would read as a truncated document.
			w.Write(bytes.Repeat([]byte(" "), 4096))
		}
		writeWireResponse(w, res)
	}))
	defer ts.Close()
	hw := NewHTTPWorker(ts.URL, 0, 1, 5*time.Second)
	hw.maxReply = 2048
	c, err := New(d, []Worker{hw}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	noPins := func(when string) {
		t.Helper()
		for _, tab := range d.Catalog().Tables() {
			if n := tab.Pins(); n != 0 {
				t.Errorf("after %s: table %s holds %d pins", when, tab.Name, n)
			}
		}
	}

	mode.Store("error")
	_, _, err = c.Exec(ctx, protoSQL)
	var we *WorkerError
	if !errors.As(err, &we) || !strings.Contains(err.Error(), "500") {
		t.Fatalf("oversized error body: got %v, want a WorkerError naming the 500", err)
	}
	if len(err.Error()) > 1024 {
		t.Fatalf("oversized error body leaked %d bytes into the error", len(err.Error()))
	}
	noPins("an oversized error body")

	mode.Store("huge")
	if _, _, err = c.Exec(ctx, protoSQL); !errors.Is(err, ErrReplyTooLarge) {
		t.Fatalf("oversized 200 body: got %v, want ErrReplyTooLarge", err)
	}
	noPins("an oversized 200 body")

	mode.Store("ok")
	got, _, err := c.Exec(ctx, protoSQL)
	if err != nil {
		t.Fatalf("normal reply: %v", err)
	}
	want, err := d.RunSQL(ctx, protoSQL)
	if err != nil {
		t.Fatal(err)
	}
	if err := query.Diff(want, got, 0); err != nil {
		t.Fatalf("normal reply differs from single-node: %v", err)
	}
	noPins("a normal reply")
}

// writeWireResponse answers a scripted /v1/shard/exec request the way a
// worker does: the result's snapshot identity and its base64 partial.
func writeWireResponse(w http.ResponseWriter, res *ExecResult) {
	data, err := res.Partial.MarshalBinary()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	json.NewEncoder(w).Encode(WireResponse{
		Fact:          res.Fact,
		Domain:        res.Domain,
		SchemaVersion: res.SchemaVersion,
		DataVersion:   res.DataVersion,
		Partial:       base64.StdEncoding.EncodeToString(data),
	})
}
