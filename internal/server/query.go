package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"astore/internal/core"
	"astore/internal/db"
	"astore/internal/obs"
	"astore/internal/query"
	"astore/internal/shard"
	"astore/internal/sql"
)

// statusClientClosed is the non-standard 499 (client closed request) used
// for metrics when the client disconnects mid-query; the response itself is
// unreachable.
const statusClientClosed = 499

// queryRequest is the POST /v1/query body.
type queryRequest struct {
	// SQL is a SPJGA SELECT statement, optionally prefixed with EXPLAIN
	// (plan only) or EXPLAIN ANALYZE (execute traced).
	SQL string `json:"sql"`
	// TimeoutMS overrides the server's default per-query deadline, capped
	// at the server's maximum.
	TimeoutMS int64 `json:"timeout_ms"`
	// Trace attaches the span tree of the execution to the response.
	Trace bool `json:"trace"`
}

// handleQuery serves POST /v1/query: decode, admit, execute under the
// per-request deadline, stream the result.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	dec.DisallowUnknownFields()
	var req queryRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, `body must carry "sql"`)
		return
	}
	// The HTTP endpoint accepts the same EXPLAIN prefixes as the shell.
	switch mode, rest := sql.StripExplain(req.SQL); mode {
	case sql.ExplainPlan:
		s.handleExplain(w, rest)
		return
	case sql.ExplainAnalyze:
		req.SQL = rest
		req.Trace = true
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		// Clamp in milliseconds before converting: a huge timeout_ms would
		// overflow time.Duration into the negative.
		if req.TimeoutMS >= maxTimeout.Milliseconds() {
			timeout = maxTimeout
		} else {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
	} else if timeout > maxTimeout {
		timeout = maxTimeout
	}
	// r.Context() is canceled when the client disconnects, so both
	// disconnects and deadlines cancel the scan at a batch boundary.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	var tr *obs.Trace
	if req.Trace {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}

	t0 := time.Now()
	res, meta, err := s.runQuery(ctx, &req)
	elapsed := time.Since(t0)
	if tr != nil {
		tr.Finish()
	}
	s.logSlowQuery(obs.RequestIDFrom(ctx), &req, &meta, res, elapsed, err)
	if err != nil {
		s.writeQueryError(w, timeout, err)
		return
	}
	s.streamResult(w, meta.fact, res, elapsed, tr)
}

// queryMeta describes one executed query for the slow-query log.
type queryMeta struct {
	fact  string
	stats core.Stats
}

// logSlowQuery emits at most one slow-query log line per request (success
// or failure).
func (s *Server) logSlowQuery(rid string, req *queryRequest, meta *queryMeta, res *query.Result, elapsed time.Duration, err error) {
	if !s.slow.Enabled() {
		return
	}
	e := obs.SlowEntry{
		RequestID:      rid,
		Fact:           meta.fact,
		Query:          req.SQL,
		PlanHit:        meta.stats.PlanHit,
		RowsScanned:    meta.stats.RowsScanned,
		RowsSelected:   meta.stats.RowsSelected,
		SegmentsTotal:  meta.stats.SegmentsTotal,
		SegmentsPruned: meta.stats.SegmentsPruned,
		StagesUS: map[string]float64{
			obs.StagePrune: float64(meta.stats.PruneNS) / 1e3,
			obs.StageCache: float64(meta.stats.CacheNS) / 1e3,
			obs.StageBind:  float64(meta.stats.BindNS) / 1e3,
			obs.StageScan:  float64(meta.stats.ScanNS) / 1e3,
			obs.StageMerge: float64(meta.stats.AggNS) / 1e3,
		},
	}
	if res != nil {
		e.Rows = len(res.Rows)
	}
	if err != nil {
		e.Error = err.Error()
	}
	s.slow.Observe(elapsed, e)
}

// handleExplain serves EXPLAIN <select>: render the plan, execute nothing.
// On a coordinator the plan gains the scatter-gather fan-out line.
func (s *Server) handleExplain(w http.ResponseWriter, text string) {
	var fact, plan string
	var err error
	if c := s.cfg.Coordinator; c != nil {
		fact, plan, err = c.Explain(text)
	} else {
		var p *db.Prepared
		if p, err = s.db.PrepareSQL(text); err == nil {
			fact = p.Fact()
			plan, err = p.Explain()
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, struct {
		Fact    string `json:"fact"`
		Explain string `json:"explain"`
	}{Fact: fact, Explain: plan})
}

// errQueuedTimeout marks a request whose deadline expired while it waited
// for an admission slot: the server was too busy to serve it in time,
// which is overload, not execution timeout.
var errQueuedTimeout = errors.New("server: queued past the request deadline")

// badRequest wraps errors the client caused (parse, routing, validation).
type badRequest struct{ err error }

func (b badRequest) Error() string { return b.err.Error() }

// runQuery admits, prepares, and executes the request. Admission covers
// planning and execution — both hold snapshot pins and planning may compile
// predicate vectors over large dimensions — but not response streaming: the
// slot is released as soon as the result is materialized, so a slow-reading
// client cannot pin a slot.
func (s *Server) runQuery(ctx context.Context, req *queryRequest) (*query.Result, queryMeta, error) {
	var meta queryMeta
	qt0 := time.Now()
	err := s.adm.acquire(ctx)
	s.met.queueWait.Observe(time.Since(qt0).Seconds())
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return nil, meta, errQueuedTimeout
		}
		return nil, meta, err // errOverloaded, or canceled by disconnect
	}
	defer s.adm.release()
	if s.testHookAdmitted != nil {
		s.testHookAdmitted()
	}

	// The parse stage covers SQL parsing, routing, and the prepare-time
	// compile; db.Prepared.ExecStats records the pin and plan-cache spans.
	tr := obs.TraceFrom(ctx)
	var parseSpan obs.SpanID
	if tr != nil {
		parseSpan = tr.Start(tr.Root(), obs.StageParse)
	}
	p, err := s.db.PrepareSQL(req.SQL)
	if tr != nil {
		tr.End(parseSpan)
	}
	if err != nil {
		return nil, meta, badRequest{err}
	}
	meta.fact = p.Fact()
	// A coordinator executes scatter-gather instead of scanning locally.
	if c := s.cfg.Coordinator; c != nil {
		res, cmeta, err := c.ExecPrepared(ctx, p, req.SQL)
		if err != nil {
			return nil, meta, err
		}
		meta.stats = cmeta.Stats
		return res, meta, nil
	}
	res, err := p.ExecStats(ctx, &meta.stats)
	if err != nil {
		return nil, meta, err
	}
	return res, meta, nil
}

// writeQueryError maps a runQuery error to its response: overload to 503
// with Retry-After, client mistakes to 400, the execution deadline to 504,
// client disconnect to 499, a fail-closed shard inconsistency to 503
// (retrying pins a fresh snapshot), anything else to 500.
func (s *Server) writeQueryError(w http.ResponseWriter, timeout time.Duration, err error) {
	var br badRequest
	var inc *shard.InconsistentError
	switch {
	case errors.Is(err, errOverloaded):
		s.writeOverloaded(w, "query capacity exhausted")
	case errors.Is(err, errQueuedTimeout):
		s.writeOverloaded(w, "queued past the request deadline")
	case errors.As(err, &inc):
		s.writeOverloaded(w, inc.Error())
	case errors.As(err, &br):
		writeError(w, http.StatusBadRequest, "%v", br.err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "query exceeded its %v deadline", timeout)
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosed, "client closed request")
	default:
		writeError(w, http.StatusInternalServerError, "query execution: %v", err)
	}
}

// streamResult writes the result as one JSON object, row by row, flushing
// every flushRows rows so large group-bys reach the client incrementally
// instead of buffering server-side:
//
//	{"fact":"lineorder","columns":[...],"rows":[[...],...],
//	 "trace":{...},"row_count":N,"elapsed_us":E}
//
// The trace object (present only for traced requests) is the span tree of
// this execution.
func (s *Server) streamResult(w http.ResponseWriter, fact string, res *query.Result, elapsed time.Duration, tr *obs.Trace) {
	w.Header().Set("Content-Type", "application/json")
	flusher, _ := w.(http.Flusher)

	cols, err := json.Marshal(res.Columns())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode columns: %v", err)
		return
	}
	// From here on the 200 header is out; encoding errors mean the client
	// went away and are dropped.
	if _, err := fmt.Fprintf(w, `{"fact":%q,"columns":%s,"rows":[`, fact, cols); err != nil {
		return
	}
	for i := range res.Rows {
		b, err := res.Rows[i].MarshalJSON()
		if err != nil {
			return
		}
		if i > 0 {
			if _, err := w.Write([]byte{','}); err != nil {
				return
			}
		}
		if _, err := w.Write(b); err != nil {
			return
		}
		if flusher != nil && (i+1)%flushRows == 0 {
			flusher.Flush()
		}
	}
	if _, err := w.Write([]byte{']'}); err != nil {
		return
	}
	if tr != nil {
		if tb, err := json.Marshal(tr.Tree()); err == nil {
			if _, err := fmt.Fprintf(w, `,"trace":%s`, tb); err != nil {
				return
			}
		}
	}
	fmt.Fprintf(w, `,"row_count":%d,"elapsed_us":%d}`+"\n", len(res.Rows), elapsed.Microseconds())
}
