package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceTree(t *testing.T) {
	tr := NewTrace()
	p := tr.Start(tr.Root(), StageParse)
	time.Sleep(time.Millisecond)
	tr.End(p)
	ex := tr.Start(tr.Root(), StageExecute)
	t0 := time.Now()
	tr.Add(ex, StagePrune, t0, 100*time.Nanosecond)
	sc := tr.Add(ex, StageScan, t0, 2*time.Millisecond)
	tr.SetRows(sc, 1000, 10)
	tr.End(ex)
	tr.Finish()

	root := tr.Tree()
	if root.Name != StageRoot {
		t.Fatalf("root span = %q, want %q", root.Name, StageRoot)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(root.Children))
	}
	if wall := tr.spans[0].durNS; wall <= 0 {
		t.Fatalf("root span duration = %d ns, want > 0", wall)
	}
	var scan *Span
	for _, c := range root.Children {
		if c.Name == StageExecute {
			for _, g := range c.Children {
				if g.Name == StageScan {
					scan = g
				}
			}
		}
	}
	if scan == nil {
		t.Fatal("scan span missing from tree")
	}
	if scan.RowsIn != 1000 || scan.RowsOut != 10 {
		t.Fatalf("scan rows = %d -> %d, want 1000 -> 10", scan.RowsIn, scan.RowsOut)
	}
	for _, name := range []string{StageParse, StagePrune, StageScan, StageExecute} {
		if d := findSpan(root, name); d == nil || d.DurUS <= 0 {
			t.Fatalf("span %q missing or has non-positive duration", name)
		}
	}
	if _, err := json.Marshal(tr); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if txt := tr.Format(); !strings.Contains(txt, "scan") || !strings.Contains(txt, "rows 1000 -> 10") {
		t.Fatalf("Format missing scan line:\n%s", txt)
	}
}

func findSpan(s *Span, name string) *Span {
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

func TestTraceContext(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("TraceFrom on empty ctx should be nil")
	}
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom did not round-trip")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets())
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i+1) * 1e-5) // 10us .. 10ms
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 < 2e-3 || p50 > 9e-3 {
		t.Fatalf("p50 = %v, want ~5e-3 within bucket resolution", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 || p99 > 2e-2 {
		t.Fatalf("p99 = %v (p50 %v)", p99, p50)
	}
	if s := h.Sum(); s < 4.9 || s > 5.1 {
		t.Fatalf("sum = %v, want ~5.005", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(DefaultLatencyBuckets())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(w+1) * 1e-4)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				h.Quantile(0.95)
				h.Sum()
			}
		}
	}()
	wg.Wait()
	close(done)
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

// promLine matches a Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[-+]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)

// ValidatePrometheusText is shared with the server e2e test: it checks
// every line of a text exposition is a comment or a well-formed sample.
func ValidatePrometheusText(t *testing.T, text string) int {
	t.Helper()
	samples := 0
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line %d is not valid Prometheus text: %q", ln+1, line)
		}
		samples++
	}
	return samples
}

// tableSample and fieldSample are a stats snapshot as RegisterFields reads
// it.
type tableSample struct {
	Rows int64  `metric:"astore_table_rows,gauge" help:"per-table"`
	Name string // untagged: not a family
}

type fieldSample struct {
	Up     float64 `metric:"astore_up,gauge" help:"a gauge"`
	Nested struct {
		Hits uint64 `metric:"astore_hits_total,counter" help:"a nested counter"`
	}
	Absent *struct {
		N int64 `metric:"astore_absent_total,counter" help:"nil at registration"`
	}
	Tables map[string]tableSample `label:"table"`
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("astore_test_total", "a counter")
	c.Add(3)
	r.CounterVec("astore_reqs_total", "labelled", "endpoint").With("query").Inc()
	var sample fieldSample
	r.RegisterFields(&sample)
	// Registration binds the fields, not their values at the time.
	sample.Up = 1.5
	sample.Nested.Hits = 9
	sample.Tables = map[string]tableSample{"lineorder": {Rows: 60175}, `we"ird`: {Rows: 1}}
	h := r.Histogram("astore_lat_seconds", "latency", DefaultLatencyBuckets())
	h.Observe(0.002)
	h.Observe(0.004)
	r.HistogramVec("astore_ep_seconds", "per-endpoint latency", "endpoint", DefaultLatencyBuckets()).With("query").Observe(0.01)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	n := ValidatePrometheusText(t, text)
	if n == 0 {
		t.Fatal("no samples emitted")
	}
	for _, want := range []string{
		"astore_test_total 3",
		`astore_reqs_total{endpoint="query"} 1`,
		"# TYPE astore_lat_seconds histogram",
		`astore_lat_seconds_bucket{le="+Inf"} 2`,
		"astore_lat_seconds_count 2",
		`astore_ep_seconds_bucket{endpoint="query",le="+Inf"} 1`,
		"# TYPE astore_up gauge",
		"astore_up 1.5",
		"# TYPE astore_hits_total counter",
		"astore_hits_total 9",
		"# TYPE astore_table_rows gauge",
		`astore_table_rows{table="lineorder"} 60175`,
		`astore_table_rows{table="we\"ird"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "astore_absent_total") {
		t.Fatalf("a block nil at registration registered a family:\n%s", text)
	}
	// Cumulative buckets must be monotonic.
	if !strings.Contains(text, `astore_lat_seconds_bucket{le="0.002048"} 1`) {
		t.Fatalf("expected le=0.002048 bucket with count 1:\n%s", text)
	}
}

func TestSlowLog(t *testing.T) {
	var buf bytes.Buffer
	l := NewSlowLog(&buf, 10*time.Millisecond)
	if !l.Enabled() {
		t.Fatal("expected enabled")
	}
	if l.Observe(5*time.Millisecond, SlowEntry{Fact: "lineorder"}) {
		t.Fatal("fast query logged")
	}
	if !l.Observe(20*time.Millisecond, SlowEntry{Fact: "lineorder", RequestID: "abc", Rows: 7}) {
		t.Fatal("slow query not logged")
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	var e SlowEntry
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("slow log line is not JSON: %v", err)
	}
	if e.Fact != "lineorder" || e.RequestID != "abc" || e.Rows != 7 || e.ElapsedUS != 20000 {
		t.Fatalf("bad entry: %+v", e)
	}
	var disabled *SlowLog
	if disabled.Enabled() || disabled.Observe(time.Hour, SlowEntry{}) || disabled.Logged() != 0 {
		t.Fatal("nil slow log must be inert")
	}
}

func TestRequestID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("id %q has length %d, want 16", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
	ctx := WithRequestID(context.Background(), "deadbeef")
	if RequestIDFrom(ctx) != "deadbeef" {
		t.Fatal("request id did not round-trip")
	}
	if RequestIDFrom(context.Background()) != "" {
		t.Fatal("empty ctx should have no request id")
	}
}
