package obs

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format (version 0.0.4). It is hand-rolled so the module keeps
// zero external dependencies; only the subset of the format the server
// needs is implemented: counters, gauges, and cumulative histograms.
type Registry struct {
	mu  sync.Mutex
	fam []*family
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type family struct {
	name string
	help string
	kind metricKind

	mu      sync.Mutex
	series  map[string]series // label-set key -> series
	ordered []string          // insertion order of series keys
}

type series interface {
	// write emits the sample lines for one labelled series.
	write(w io.Writer, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) addFamily(name, help string, kind metricKind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.fam {
		if f.name == name {
			if f.kind != kind {
				panic("obs: metric " + name + " re-registered with a different type")
			}
			return f
		}
	}
	f := &family{name: name, help: help, kind: kind, series: map[string]series{}}
	r.fam = append(r.fam, f)
	return f
}

func (f *family) get(key string, mk func() series) series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	f.series[key] = s
	f.ordered = append(f.ordered, key)
	return s
}

// labelKey renders a label set as `{k1="v1",k2="v2"}` (empty string for no
// labels). Keys are emitted in the order given; callers pass fixed orders.
func labelKey(labels [][2]string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (must be >= 0 to stay a counter; not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.v.Load())
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.addFamily(name, help, kindCounter)
	return f.get("", func() series { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with one label dimension.
type CounterVec struct {
	f     *family
	label string
}

// CounterVec registers a counter family labelled by label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{f: r.addFamily(name, help, kindCounter), label: label}
}

// With returns the counter for one label value.
func (v *CounterVec) With(value string) *Counter {
	key := labelKey([][2]string{{v.label, value}})
	return v.f.get(key, func() series { return &Counter{} }).(*Counter)
}

// RegisterFields registers one collect-time family per tagged field of the
// struct v points to, so a counter kept in a stats struct is declared once —
// as the field, with its JSON name beside its metric name, help and kind:
//
//	Hits int64 `json:"hits" metric:"astore_hits_total,counter" help:"Cache hits."`
//
// The kind is counter or gauge, and the field any integer or float type.
// Untagged struct fields, embedded or not, are walked for tags; so is the
// struct behind a pointer that is non-nil at registration (a nil one
// registers nothing). A map from string to struct tagged label:"<name>"
// registers each tagged field of its element as one family with that label,
// a series per map key.
//
// Every WriteText reads the current values out of *v, so the caller
// refreshes *v and renders under one lock of its own.
func (r *Registry) RegisterFields(v any) {
	root := reflect.ValueOf(v).Elem()
	r.registerFields(root, root, nil)
}

func (r *Registry) registerFields(root, v reflect.Value, path []int) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		idx := append(append([]int(nil), path...), i)
		if tag := f.Tag.Get("metric"); tag != "" {
			name, kind := parseMetricTag(tag, f.Type)
			r.addFamily(name, f.Tag.Get("help"), kind).get("", func() series {
				return fieldSeries{root: root, idx: idx}
			})
			continue
		}
		switch {
		case fv.Kind() == reflect.Struct:
			r.registerFields(root, fv, idx)
		case fv.Kind() == reflect.Pointer && !fv.IsNil() && fv.Elem().Kind() == reflect.Struct:
			r.registerFields(root, fv.Elem(), idx)
		case fv.Kind() == reflect.Map && f.Tag.Get("label") != "":
			et := f.Type.Elem()
			for j := 0; j < et.NumField(); j++ {
				if tag := et.Field(j).Tag.Get("metric"); tag != "" {
					name, kind := parseMetricTag(tag, et.Field(j).Type)
					r.addFamily(name, et.Field(j).Tag.Get("help"), kind).get("", func() series {
						return labeledFieldSeries{root: root, idx: idx, label: f.Tag.Get("label"), field: j}
					})
				}
			}
		}
	}
}

// parseMetricTag splits the `metric:"name,kind"` tag of a field of type t.
func parseMetricTag(tag string, t reflect.Type) (string, metricKind) {
	name, kind, _ := strings.Cut(tag, ",")
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
	default:
		panic("obs: metric " + name + " tags a " + t.String() + ", not a number")
	}
	switch kind {
	case "counter":
		return name, kindCounter
	case "gauge":
		return name, kindGauge
	}
	panic("obs: metric " + name + ": kind must be counter or gauge, not " + strconv.Quote(kind))
}

// fieldSeries is one tagged field, read at every render.
type fieldSeries struct {
	root reflect.Value
	idx  []int
}

func (s fieldSeries) write(w io.Writer, name, labels string) {
	v, err := s.root.FieldByIndexErr(s.idx)
	if err != nil { // a block that was present at registration went nil
		return
	}
	writeNumber(w, name, labels, v)
}

// labeledFieldSeries is one element field of a labelled map, a series per
// key in key order.
type labeledFieldSeries struct {
	root  reflect.Value
	idx   []int
	label string
	field int
}

func (s labeledFieldSeries) write(w io.Writer, name, _ string) {
	m := s.root.FieldByIndex(s.idx)
	keys := m.MapKeys()
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, k := range keys {
		writeNumber(w, name, labelKey([][2]string{{s.label, k.String()}}), m.MapIndex(k).Field(s.field))
	}
}

// writeNumber renders one sample of an integer or float field.
func writeNumber(w io.Writer, name, labels string, v reflect.Value) {
	switch {
	case v.CanInt():
		fmt.Fprintf(w, "%s%s %d\n", name, labels, v.Int())
	case v.CanUint():
		fmt.Fprintf(w, "%s%s %d\n", name, labels, v.Uint())
	default:
		fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(v.Float()))
	}
}

// DefaultLatencyBuckets are exponential (log-bucketed) upper bounds in
// seconds: 1µs doubling up to ~537s, which brackets everything from a
// plan-cache hit to a multi-minute timeout. 30 buckets keeps a histogram
// at 31 atomics.
func DefaultLatencyBuckets() []float64 {
	b := make([]float64, 30)
	v := 1e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// Histogram is a fixed-bucket cumulative histogram with atomic buckets.
// Observation is lock-free; Snapshot and Quantile read the atomics without
// coordination, which is race-detector clean and at worst reads a sample
// torn across buckets — acceptable for monitoring.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf bucket is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h
}

// Observe records one value (in the bucket unit, normally seconds).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the bucket containing it. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := lo
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) write(w io.Writer, name, labels string) {
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, "le", formatFloat(b)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
}

// mergeLabels inserts an extra label into an already-rendered label block.
func mergeLabels(labels, k, v string) string {
	extra := k + `="` + v + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// Histogram registers (or fetches) an unlabelled histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.addFamily(name, help, kindHistogram)
	return f.get("", func() series { return NewHistogram(bounds) }).(*Histogram)
}

// HistogramVec is a histogram family with one label dimension.
type HistogramVec struct {
	f      *family
	label  string
	bounds []float64
}

// HistogramVec registers a histogram family labelled by label.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return &HistogramVec{f: r.addFamily(name, help, kindHistogram), label: label, bounds: bounds}
}

// With returns the histogram for one label value.
func (v *HistogramVec) With(value string) *Histogram {
	key := labelKey([][2]string{{v.label, value}})
	return v.f.get(key, func() series { return NewHistogram(v.bounds) }).(*Histogram)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func kindName(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// WriteText renders every family in Prometheus text exposition format.
// Families appear in registration order; series within a family in
// creation order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fam...)
	r.mu.Unlock()
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, kindName(f.kind))
		f.mu.Lock()
		keys := append([]string(nil), f.ordered...)
		sers := make([]series, len(keys))
		for i, k := range keys {
			sers[i] = f.series[k]
		}
		f.mu.Unlock()
		for i, k := range keys {
			sers[i].write(w, f.name, k)
		}
	}
	return nil
}
