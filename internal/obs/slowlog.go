package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SlowEntry is one JSON line in the structured slow-query log: identity
// (request ID, fact, query text), outcome, and the compact per-stage
// summary a trace would carry, so a slow query is diagnosable without
// having been traced.
type SlowEntry struct {
	Time           string             `json:"ts"`
	RequestID      string             `json:"request_id,omitempty"`
	Fact           string             `json:"fact,omitempty"`
	Query          string             `json:"query,omitempty"`
	ElapsedUS      int64              `json:"elapsed_us"`
	Rows           int                `json:"rows"`
	RowsScanned    int64              `json:"rows_scanned,omitempty"`
	RowsSelected   int64              `json:"rows_selected,omitempty"`
	SegmentsTotal  int64              `json:"segments_total,omitempty"`
	SegmentsPruned int64              `json:"segments_pruned,omitempty"`
	PlanHit        bool               `json:"plan_hit"`
	StagesUS       map[string]float64 `json:"stages_us,omitempty"`
	Error          string             `json:"error,omitempty"`
}

// SlowLog writes JSON-lines entries for queries at or above a latency
// threshold. A nil *SlowLog is the disabled state; all methods are nil-safe.
type SlowLog struct {
	threshold time.Duration
	mu        sync.Mutex // serialises writes so lines never interleave
	w         io.Writer
	logged    atomic.Int64
}

// NewSlowLog returns a slow-query log writing to w for queries slower than
// threshold. Returns nil (disabled) when threshold <= 0 or w is nil.
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	if w == nil || threshold <= 0 {
		return nil
	}
	return &SlowLog{threshold: threshold, w: w}
}

// Enabled reports whether the log is active.
func (l *SlowLog) Enabled() bool { return l != nil }

// Logged returns how many entries have been written.
func (l *SlowLog) Logged() int64 {
	if l == nil {
		return 0
	}
	return l.logged.Load()
}

// Observe writes e as one JSON line if elapsed meets the threshold,
// stamping e.Time and e.ElapsedUS. It reports whether a line was written;
// each qualifying query produces exactly one line.
func (l *SlowLog) Observe(elapsed time.Duration, e SlowEntry) bool {
	if l == nil || elapsed < l.threshold {
		return false
	}
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	e.ElapsedUS = elapsed.Microseconds()
	line, err := json.Marshal(e)
	if err != nil {
		return false
	}
	line = append(line, '\n')
	l.mu.Lock()
	_, werr := l.w.Write(line)
	l.mu.Unlock()
	if werr != nil {
		return false
	}
	l.logged.Add(1)
	return true
}
