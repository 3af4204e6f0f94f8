// Package server exposes a db.DB over HTTP: a production-shaped network
// serving layer on top of the database handle's plan cache, snapshot
// isolation, and cancellation machinery.
//
// Endpoints:
//
//	POST /v1/query                 execute one SQL query (EXPLAIN and
//	                               EXPLAIN ANALYZE too), streaming the
//	                               result as JSON
//	POST /v1/tables/{table}/append live ingest: append rows to a table while
//	                               readers stay snapshot-isolated
//	GET  /healthz                  liveness (503 while draining)
//	GET  /v1/stats                 plan-cache + admission + per-endpoint +
//	                               per-table counters (JSON)
//	GET  /metrics                  the same signals as Prometheus text
//	                               exposition (histograms, counters, gauges)
//
// The server admits at most MaxInFlight concurrent queries; up to MaxQueue
// more wait QueueWait for a slot and everything beyond is rejected with
// 503 and a Retry-After hint, so overload fails fast instead of piling up.
// Every query runs under a per-request deadline mapped onto its
// context.Context; client disconnects and timeouts cancel the scan at the
// next batch boundary and release all snapshot pins. Handler panics become
// 500 responses, and Shutdown drains in-flight queries before returning.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"astore/internal/db"
	"astore/internal/obs"
	"astore/internal/shard"
)

const (
	// maxBodyBytes bounds request bodies (queries and appends).
	maxBodyBytes = 8 << 20
	// flushRows is the number of result rows streamed between flushes.
	flushRows = 1024
	// retryAfter is the Retry-After hint attached to 503 responses.
	retryAfter = time.Second
	// maxTimeout caps the per-query deadline a request may ask for.
	maxTimeout = 5 * time.Minute
)

// Config tunes the server. The zero value serves with sensible defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing queries. Default 4.
	MaxInFlight int
	// MaxQueue bounds queries waiting for a slot; beyond it requests are
	// rejected immediately with 503. Default 2*MaxInFlight.
	MaxQueue int
	// QueueWait bounds how long a queued query waits for a slot before
	// giving up with 503. Default 1s.
	QueueWait time.Duration
	// DefaultTimeout is the per-query deadline when the request names none.
	// Default 30s.
	DefaultTimeout time.Duration
	// SlowQuery, when > 0, logs every query at or above this latency as one
	// JSON line to SlowQueryWriter. Default 0 (disabled).
	SlowQuery time.Duration
	// SlowQueryWriter receives slow-query JSON lines. Default os.Stderr
	// when SlowQuery is set.
	SlowQueryWriter io.Writer
	// Logf, when non-nil, receives one line per serving incident (panics,
	// shutdown); it is never called on the per-request fast path.
	Logf func(format string, args ...any)

	// Coordinator, when non-nil, routes query executions scatter-gather
	// across its shard workers instead of executing locally; /healthz
	// reports per-worker reachability and /v1/stats gains a shard section.
	// It must be built on the server's DB, which prepares each statement
	// the coordinator merges.
	Coordinator *shard.Coordinator
	// ShardWorker mounts POST /v1/shard/exec so this server can serve
	// shard-local partial executions to a remote coordinator.
	ShardWorker bool
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.SlowQuery > 0 && c.SlowQueryWriter == nil {
		c.SlowQueryWriter = os.Stderr
	}
	return c
}

// Server serves a db.DB over HTTP. Create one with New, mount Handler (or
// call ListenAndServe), and stop it with Shutdown.
type Server struct {
	db    *db.DB
	cfg   Config
	adm   *admission
	mux   *http.ServeMux
	start time.Time
	// instance identifies this server process; shard responses carry it as
	// their version domain.
	instance string

	reg  *obs.Registry
	met  serverMetrics
	slow *obs.SlowLog

	endpoints map[string]*endpointMetrics
	panics    atomic.Int64

	// Drain state: handlers register under drainMu so Shutdown can set
	// closing and then wait for active to reach zero without racing new
	// arrivals (a bare WaitGroup would race Add against Wait). closing is
	// additionally an atomic so healthz and tests can observe it cheaply.
	closing   atomic.Bool
	drainMu   sync.Mutex
	drainCond *sync.Cond
	active    int // guarded by drainMu

	srvMu   sync.Mutex
	httpSrv *http.Server // guarded by srvMu; set by ListenAndServe

	// testHookAdmitted, when non-nil, runs after a query passes admission
	// and before it executes; tests use it to hold slots occupied.
	testHookAdmitted func()
}

// New builds a Server over the database handle.
func New(d *db.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:        d,
		cfg:       cfg,
		adm:       newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		instance:  obs.NewRequestID(),
		endpoints: make(map[string]*endpointMetrics),
	}
	s.drainCond = sync.NewCond(&s.drainMu)
	s.initMetrics()
	if cfg.Coordinator != nil {
		cfg.Coordinator.RegisterMetrics(s.reg)
	}
	s.slow = obs.NewSlowLog(cfg.SlowQueryWriter, cfg.SlowQuery)
	s.handle("POST /v1/query", "query", s.handleQuery)
	s.handle("POST /v1/tables/{table}/append", "append", s.handleAppend)
	s.handle("GET /healthz", "healthz", s.handleHealthz)
	s.handle("GET /v1/stats", "stats", s.handleStats)
	s.handle("GET /metrics", "metrics", s.handleMetrics)
	if cfg.ShardWorker {
		s.handle("POST /v1/shard/exec", "shard_exec", s.handleShardExec)
	}
	return s
}

// Handler returns the server's HTTP handler (for mounting under httptest or
// an external http.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until Shutdown. It returns nil after a
// clean Shutdown (including a Shutdown that won the race with the listener
// starting), and the listen error otherwise.
func (s *Server) ListenAndServe(addr string) error {
	hs := &http.Server{
		Addr:    addr,
		Handler: s.mux,
		// Slow or stalled clients must not hold connections (and, through
		// response writes, admission-adjacent resources) forever. The write
		// timeout leaves headroom over the longest allowed query deadline
		// plus result streaming.
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      maxTimeout + time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	s.srvMu.Lock()
	if s.closing.Load() {
		s.srvMu.Unlock()
		return nil
	}
	s.httpSrv = hs
	s.srvMu.Unlock()
	err := hs.ListenAndServe()
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// enter registers an in-flight handler; false means the server is draining
// and the request must be turned away.
func (s *Server) enter() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.closing.Load() {
		return false
	}
	s.active++
	return true
}

// leave deregisters an in-flight handler, waking Shutdown when the last
// one finishes.
func (s *Server) leave() {
	s.drainMu.Lock()
	s.active--
	if s.active == 0 {
		s.drainCond.Broadcast()
	}
	s.drainMu.Unlock()
}

// Shutdown drains the server: new requests are rejected with 503, in-flight
// queries run to completion (releasing their snapshot pins), and the
// listener (if ListenAndServe was used) is closed. It returns ctx's error
// if draining does not finish in time.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.closing.Store(true) // under drainMu: no enter() succeeds after this
	s.drainMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.drainMu.Lock()
		for s.active > 0 {
			s.drainCond.Wait()
		}
		s.drainMu.Unlock()
		close(done)
	}()
	s.srvMu.Lock()
	hs := s.httpSrv
	s.srvMu.Unlock()
	select {
	case <-done:
	case <-ctx.Done():
		// Draining timed out; still close the listener so an embedding
		// caller is not left serving 503s forever.
		if hs != nil {
			_ = hs.Close()
		}
		return ctx.Err()
	}
	if hs != nil {
		return hs.Shutdown(ctx)
	}
	s.logf("server: drained, shut down")
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// endpoint returns (registering on first use) the named endpoint's
// counters, bound to the registry's per-endpoint latency histogram and
// error counter.
func (s *Server) endpoint(name string) *endpointMetrics {
	m, ok := s.endpoints[name]
	if !ok {
		m = &endpointMetrics{
			lat:  s.met.reqDur.With(name),
			errs: s.met.reqErrors.With(name),
		}
		s.endpoints[name] = m
	}
	return m
}

// handle mounts fn under pattern with the serving envelope: in-flight
// tracking for Shutdown, drain rejection, panic-to-500 recovery, and
// per-endpoint latency/count metrics.
func (s *Server) handle(pattern, name string, fn http.HandlerFunc) {
	m := s.endpoint(name)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				s.logf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal error")
				}
			}
			m.observe(time.Since(t0), sw.status() >= 400)
		}()
		// healthz stays up while draining (it reports the state itself) and
		// is not drain-tracked; everything else registers with enter so
		// Shutdown can wait for it, or is rejected once draining started.
		if name != "healthz" {
			if !s.enter() {
				s.writeOverloaded(sw, "server is shutting down")
				return
			}
			defer s.leave()
		}
		// Every request gets an ID at admission, echoed in the response
		// header and propagated on the context so the slow-query log can
		// be joined back to the client that saw the latency.
		rid := obs.NewRequestID()
		sw.Header().Set("X-Astore-Request-Id", rid)
		r = r.WithContext(obs.WithRequestID(r.Context(), rid))
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		fn(sw, r)
	})
}

// statusWriter records the response status for metrics and panic recovery.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so result streaming works.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.code
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error   string   `json:"error"`
	Columns []string `json:"columns,omitempty"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeOverloaded writes a 503 with the Retry-After hint.
func (s *Server) writeOverloaded(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
	writeError(w, http.StatusServiceUnavailable, "%s", msg)
}

// writeJSON writes v as a 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// handleHealthz reports liveness; while draining it returns 503 so load
// balancers stop routing here.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status   string               `json:"status"`
		Facts    []string             `json:"facts"`
		UptimeMS int64                `json:"uptime_ms"`
		Shards   []shard.WorkerHealth `json:"shards,omitempty"`
	}
	h := health{Status: "ok", Facts: s.db.Facts(), UptimeMS: time.Since(s.start).Milliseconds()}
	if c := s.cfg.Coordinator; c != nil {
		h.Shards = c.Health(r.Context())
		for _, ws := range h.Shards {
			if !ws.Reachable {
				h.Status = "degraded"
			}
		}
	}
	if s.closing.Load() {
		h.Status = "draining"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(h)
		return
	}
	writeJSON(w, h)
}

// handleStats reports the cumulative serving counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.StatsSnapshot())
}

// StatsSnapshot gathers the stats the /v1/stats endpoint serves.
func (s *Server) StatsSnapshot() Stats {
	uptime := time.Since(s.start)
	st := Stats{
		UptimeMS:      uptime.Milliseconds(),
		UptimeSeconds: uptime.Seconds(),
		Panics:        s.panics.Load(),
		SlowQueries:   s.slow.Logged(),
		DB:            DBStats{Stats: s.db.Stats()},
		Admission: AdmissionStats{
			MaxInFlight: s.cfg.MaxInFlight,
			MaxQueue:    s.cfg.MaxQueue,
			InFlight:    s.adm.inFlight(),
			Waiting:     s.adm.waiting(),
			Admitted:    s.adm.admitted.Load(),
			Queued:      s.adm.queued.Load(),
			Rejected:    s.adm.rejected.Load(),
		},
		Endpoints: make(map[string]EndpointStats, len(s.endpoints)),
		Tables:    s.tableStats(),
	}
	if c := s.cfg.Coordinator; c != nil {
		cs := c.Stats()
		st.Shard = &cs
	}
	for name, m := range s.endpoints {
		st.Endpoints[name] = m.snapshot()
	}
	return st
}
