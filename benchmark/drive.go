package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// readSample is one query as its client saw it.
type readSample struct {
	stmt   int // index into the flow's statement stream
	start  time.Time
	end    time.Time
	status int // 0: the request never got a response
	reqID  string
	body   []byte // kept only in a traced window
}

// appendSample is one append request, timed from the instant it was due.
type appendSample struct {
	batch  int // index into the flow's append pool
	due    time.Time
	start  time.Time
	end    time.Time
	status int
}

// answers keeps, per statement, each distinct answer it received: the
// response up to the end of its rows. A statement repeated over unchanged
// data has one.
type answers struct {
	mu     sync.Mutex
	byStmt map[int][][]byte
}

func (a *answers) add(stmt int, body []byte, traced bool) {
	rows := rowsPart(body, traced)
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, have := range a.byStmt[stmt] {
		if bytes.Equal(have, rows) {
			return
		}
	}
	a.byStmt[stmt] = append(a.byStmt[stmt], append([]byte(nil), rows...))
}

// rowsPart cuts a /v1/query response after its rows array, dropping the
// per-request trace, row count and elapsed time.
func rowsPart(body []byte, traced bool) []byte {
	end := -1
	if traced {
		end = bytes.Index(body, []byte(`],"trace":`))
	}
	if end < 0 {
		end = bytes.LastIndex(body, []byte(`],"row_count":`))
	}
	if end < 0 {
		return body
	}
	return body[:end+1]
}

// window is what one driven interval produced.
type window struct {
	traced        bool
	t0, t1        time.Time   // the measured part; samples outside are warm-up
	before, after observation // taken at t0 and t1
	reads         []readSample
	appends       []appendSample
	answers       *answers
}

func (w *window) seconds() float64 { return w.t1.Sub(w.t0).Seconds() }

// measuredReads are the queries that started and finished inside the window.
func (w *window) measuredReads() []readSample {
	var out []readSample
	for _, s := range w.reads {
		if !s.start.Before(w.t0) && !s.end.After(w.t1) {
			out = append(out, s)
		}
	}
	return out
}

// measuredAppends are the appends that fell due inside the window.
func (w *window) measuredAppends() []appendSample {
	var out []appendSample
	for _, s := range w.appends {
		if !s.due.Before(w.t0) && s.due.Before(w.t1) {
			out = append(out, s)
		}
	}
	return out
}

// driveOpts is where a window starts in the flow's streams and how long it
// runs.
type driveOpts struct {
	traced       bool
	stmtOffset   int // first statement index; a later window continues the stream
	appendOffset int
	warmup       time.Duration
	duration     time.Duration
}

// queryBody renders the /v1/query request for one statement.
func queryBody(stmt string, traced bool) []byte {
	req := map[string]any{"sql": stmt}
	if traced {
		req["trace"] = true
	}
	b, _ := json.Marshal(req) // a map of string and bool cannot fail
	return b
}

// newConn returns a client that owns exactly one keep-alive connection. The
// timeout is far above any latency measured; it only keeps a wedged server
// from wedging the harness.
func newConn() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
	}}
}

// drive runs one window of the flow against the cluster: closed-loop readers
// that each wait for a reply before asking again, and, if the flow has one,
// an open-loop writer that sends on schedule. It observes the cluster at the
// edges of the measured part and returns every sample.
func drive(ctx context.Context, c *cluster, f *Flow, opt driveOpts) (*window, error) {
	w := &window{traced: opt.traced, answers: &answers{byStmt: make(map[int][][]byte)}}
	begin := time.Now()
	w.t0 = begin.Add(opt.warmup)
	w.t1 = w.t0.Add(opt.duration)

	bodies := make([][]byte, len(f.stmts))
	for i, s := range f.stmts {
		bodies[i] = queryBody(s, opt.traced)
	}

	var wg sync.WaitGroup
	readsBy := make([][]readSample, f.clients)
	queryURL := c.front.url("/v1/query")
	for ci := 0; ci < f.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			conn := newConn()
			defer conn.CloseIdleConnections()
			var buf bytes.Buffer
			for i := opt.stmtOffset + ci; ctx.Err() == nil; i += f.clients {
				idx := i % len(f.stmts)
				s := readSample{stmt: idx, start: time.Now()}
				if !s.start.Before(w.t1) {
					break
				}
				buf.Reset()
				resp, err := conn.Post(queryURL, "application/json", bytes.NewReader(bodies[idx]))
				if err == nil {
					_, err = io.Copy(&buf, resp.Body)
					resp.Body.Close()
					if err == nil {
						s.status = resp.StatusCode
						s.reqID = resp.Header.Get("X-Astore-Request-Id")
					}
				}
				s.end = time.Now()
				if s.status == http.StatusOK {
					if opt.traced {
						s.body = append([]byte(nil), buf.Bytes()...)
					}
					if f.verifyEvery > 0 && idx%f.verifyEvery == 0 {
						w.answers.add(idx, buf.Bytes(), opt.traced)
					}
				}
				readsBy[ci] = append(readsBy[ci], s)
			}
		}(ci)
	}

	if f.appendEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := newConn()
			defer conn.CloseIdleConnections()
			url := c.front.url("/v1/tables/" + factTable + "/append")
			for k := 0; ctx.Err() == nil; k++ {
				s := appendSample{
					batch: (opt.appendOffset + k) % len(f.appendPool),
					due:   begin.Add(time.Duration(k) * f.appendEvery),
				}
				if !s.due.Before(w.t1) {
					break
				}
				time.Sleep(time.Until(s.due))
				s.start = time.Now()
				resp, err := conn.Post(url, "application/json", bytes.NewReader(f.appendPool[s.batch].body))
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err == nil {
						s.status = resp.StatusCode
					}
				}
				s.end = time.Now()
				w.appends = append(w.appends, s)
			}
		}()
	}

	// Observe the cluster at the two edges of the measured part while the
	// traffic keeps flowing.
	var obsErr error
	time.Sleep(time.Until(w.t0))
	if w.before, obsErr = c.observe(); obsErr == nil {
		time.Sleep(time.Until(w.t1))
		w.after, obsErr = c.observe()
	}
	wg.Wait()
	if obsErr != nil {
		return nil, fmt.Errorf("observe cluster: %w", obsErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, r := range readsBy {
		w.reads = append(w.reads, r...)
	}
	return w, nil
}

// postQuery sends one statement outside any window (priming, final checks)
// and returns the response body.
func postQuery(client *http.Client, url, stmt string) ([]byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(queryBody(stmt, false)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("query %q: %s: %s", stmt, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}
