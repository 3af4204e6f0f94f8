package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"astore/internal/obs"
	"astore/internal/sql"
)

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{
		{0.50, 5}, {0.99, 10}, {0.90, 9}, {0.05, 1}, {0, 1}, {1, 10},
	} {
		if got := percentile(asc, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The expected quartiles are what Python's statistics.quantiles(v, n=4)
// prints for the same values: the driver judges spreads with that function.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{10, 20}, 7.5, 22.5}, // two points extrapolate, as Python does
		{[]float64{7, 7, 7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestMedianAndRelSpread(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := relSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
	if got := relSpread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("relSpread around a zero median = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name          string
		old, cur      float64
		higher        bool
		bound, spread float64
		want          string
	}{
		{"latency up 20% regresses", 10, 12, false, 0.10, 0, verdictRegressed},
		{"latency up 5% is within the bound", 10, 10.5, false, 0.10, 0, verdictUnchanged},
		{"latency down 20% improves", 10, 8, false, 0.10, 0, verdictImproved},
		{"throughput down 20% regresses", 100, 80, true, 0.10, 0, verdictRegressed},
		{"throughput up 20% improves", 100, 120, true, 0.10, 0, verdictImproved},
		{"spread wider than the bound leaves it unresolved", 10, 20, false, 0.10, 0.15, verdictUnresolved},
		{"spread inside the bound still regresses", 10, 12, false, 0.10, 0.05, verdictRegressed},
		{"any increase of fail_ratio regresses", 0, 0.001, false, 0, 0, verdictRegressed},
		{"fail_ratio staying zero is unchanged", 0, 0, false, 0, 0, verdictUnchanged},
	} {
		if got := verdict(tc.old, tc.cur, tc.higher, tc.bound, tc.spread); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	spread := 0.3 // wider than any bound
	report := func(qps, p50, failRatio float64, p50Spread *float64) *suiteReport {
		return &suiteReport{Schema: reportSchema, Workloads: []workloadReport{{
			Name: "warm_repeat",
			EndToEnd: map[string]measured{
				"qps":        {Value: qps, Unit: "1/s"},
				"lat_p50_ms": {Value: p50, Unit: "ms", Spread: p50Spread},
				"fail_ratio": {Value: failRatio, Unit: "ratio"},
			},
		}}}
	}
	rows := compareReports(report(1000, 1.0, 0, nil), report(600, 1.5, 0.01, &spread))
	got := make(map[string]string)
	for _, r := range rows {
		got[r.metric] = r.verdict
	}
	want := map[string]string{"qps": verdictRegressed, "lat_p50_ms": verdictUnresolved, "fail_ratio": verdictRegressed}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts = %v, want %v", got, want)
	}
	var sb strings.Builder
	if !printCompare(&sb, rows) {
		t.Error("printCompare reported no regression")
	}
	if same := compareReports(report(1000, 1, 0, nil), report(1000, 1, 0, nil)); printCompare(&sb, same) {
		t.Error("identical reports compared as a regression")
	}
}

func TestWarmStreamIsASeededPermutation(t *testing.T) {
	a, b := warmStream(7), warmStream(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different warm streams")
	}
	if len(a) != 13 {
		t.Fatalf("warm stream has %d statements, want 13", len(a))
	}
	if reflect.DeepEqual(a, warmStream(8)) {
		t.Error("seeds 7 and 8 gave the same order")
	}
	set := func(s []string) map[string]bool {
		m := make(map[string]bool)
		for _, x := range s {
			m[x] = true
		}
		return m
	}
	if !reflect.DeepEqual(set(a), set(warmStream(8))) {
		t.Error("the statement set depends on the seed")
	}
}

func TestAdhocStreamSeededDistinctAndParseable(t *testing.T) {
	a := adhocStream(42, adhocStatements)
	if !reflect.DeepEqual(a, adhocStream(42, adhocStatements)) {
		t.Fatal("the same seed gave two different ad-hoc streams")
	}
	if reflect.DeepEqual(a[:100], adhocStream(43, 100)) {
		t.Error("seeds 42 and 43 gave the same statements")
	}
	distinct := make(map[string]bool)
	for i, s := range a {
		distinct[s] = true
		if _, err := sql.Parse(s); err != nil {
			t.Fatalf("statement %d does not parse: %v\n%s", i, err, s)
		}
	}
	if share := float64(len(distinct)) / float64(len(a)); share < 0.95 {
		t.Errorf("%.3f of the stream is distinct, want >= 0.95", share)
	}
	// Fixed rotation: statement i and i+13 come from the same template.
	for i := 0; i+len(adhocTemplates) < 200; i++ {
		x, y := a[i], a[i+len(adhocTemplates)]
		if x[:strings.Index(x, "WHERE")] != y[:strings.Index(y, "WHERE")] {
			t.Fatalf("statements %d and %d have different shapes", i, i+len(adhocTemplates))
		}
	}
}

func TestAppendPoolSeededAndSummed(t *testing.T) {
	a, err := appendPool(5, 0.01, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := appendPool(5, 0.01, 3, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different append pools")
	}
	for i, batch := range a {
		var sum int64
		for _, row := range batch.rows {
			sum += row["lo_revenue"].(int64)
		}
		if sum != batch.revenue || len(batch.rows) != 50 {
			t.Errorf("batch %d: %d rows summing %d, recorded %d", i, len(batch.rows), sum, batch.revenue)
		}
		var decoded struct {
			Rows []map[string]any `json:"rows"`
		}
		if err := json.Unmarshal(batch.body, &decoded); err != nil || len(decoded.Rows) != 50 {
			t.Errorf("batch %d body: %d rows, %v", i, len(decoded.Rows), err)
		}
	}
}

func TestHistogramWindowQuantile(t *testing.T) {
	const prefix = `h_bucket{endpoint="query",le="`
	scrape := func(text string) []histBucket {
		h, err := parseHistogram(strings.NewReader(text), prefix)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	before := scrape(prefix + "0.001\"} 10\n" + prefix + "0.002\"} 10\n" + prefix + "+Inf\"} 10\nother 3\n")
	after := scrape(prefix + "0.001\"} 10\n" + prefix + "0.002\"} 110\n" + prefix + "+Inf\"} 110\n")
	lo, est, hi := windowQuantile(before, after, 0.5)
	if lo != 0.001 || hi != 0.002 || math.Abs(est-0.0015) > 1e-12 {
		t.Errorf("window p50 = (%v, %v, %v), want (0.001, 0.0015, 0.002): the 10 old observations must not count", lo, est, hi)
	}
	if _, err := parseHistogram(strings.NewReader("nothing here\n"), prefix); err == nil {
		t.Error("a scrape without the histogram parsed")
	}
}

func TestRowsPartAndCanonicalAnswer(t *testing.T) {
	plain := []byte(`{"fact":"lineorder","columns":["c","n"],"rows":[["b",2],["a",1.5]],"row_count":2,"elapsed_us":17}`)
	traced := []byte(`{"fact":"lineorder","columns":["c","n"],"rows":[["a",1.5],["b",2]],"trace":{"name":"query"},"row_count":2,"elapsed_us":99}`)
	a, err := canonicalAnswer(rowsPart(plain, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := canonicalAnswer(rowsPart(traced, true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || len(a) != 2 {
		t.Errorf("the same rows in another order canonicalised to %q and %q", a, b)
	}
	var as answers
	as.byStmt = make(map[int][][]byte)
	as.add(0, plain, false)
	as.add(0, []byte(strings.Replace(string(plain), `"elapsed_us":17`, `"elapsed_us":18`, 1)), false)
	if n := len(as.byStmt[0]); n != 1 {
		t.Errorf("two responses that differ only in elapsed_us kept as %d answers", n)
	}
}

func TestSelfTimesSumToTheRoot(t *testing.T) {
	root := &obs.Span{Name: "query", DurUS: 100, Children: []*obs.Span{
		{Name: "parse", DurUS: 10},
		{Name: "execute", DurUS: 80, Children: []*obs.Span{{Name: "scan", DurUS: 50}, {Name: "merge", DurUS: 20}}},
	}}
	acc := make(map[string]float64)
	selfTimes(root, acc)
	want := map[string]float64{"query": 10, "parse": 10, "execute": 10, "scan": 50, "merge": 20}
	if !reflect.DeepEqual(acc, want) {
		t.Errorf("self times = %v, want %v", acc, want)
	}
}

// BENCHMARK.json is written by hand; the harness's catalogue is what prints.
// They must name the same workloads and metrics.
func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != pinnedSeconds {
		t.Errorf("run_seconds = %v, the harness pins %v", spec.RunSeconds, pinnedSeconds)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d = %q (%q), want %q (%q)", i, w.Name, w.Why, workloadNames[i], workloadWhy[workloadNames[i]])
		}
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	if len(spec.EndToEnd) != len(contractEndToEnd) {
		t.Fatalf("%d end_to_end metrics, want %d", len(spec.EndToEnd), len(contractEndToEnd))
	}
	for i, m := range spec.EndToEnd {
		def, ok := findDef(endToEnd, contractEndToEnd[i])
		if !ok || m.Name != def.name || m.Unit != def.unit || m.Better != better(def) || m.Bound == nil || *m.Bound != def.bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, m, def)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, want %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		def := perLayer[i]
		if m.Name != def.name || m.Unit != def.unit || m.Better != better(def) || m.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, m, def)
		}
	}
}

// TestSmoke builds astore-serve and runs all five workloads for a second each
// at SF 0.01, traced window and oracle included, then the layer pass. It
// keeps the harness runnable; it asserts answers, not speeds. The self-checks
// are sized for SF 0.5 (no segment seals in a second at SF 0.01) and are not
// asserted here.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches astore-serve")
	}
	ctx := context.Background()
	cfg := pinnedConfig().window(1)
	cfg.sf = 0.01
	cfg.serveBin = filepath.Join(t.TempDir(), "astore-serve")
	if out, err := exec.Command("go", "build", "-o", cfg.serveBin, "astore/cmd/astore-serve").CombinedOutput(); err != nil {
		t.Fatalf("build astore-serve: %v\n%s", err, out)
	}

	produced := make(map[string]bool)
	for _, name := range workloadNames {
		res, err := runWorkload(ctx, cfg, name, 1, runPlan{setups: 1, untraced: 1, traced: 0.5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, res.Failures)
		}
		if res.Samples["answers_verified"] == 0 || res.Samples["traced_queries"] == 0 {
			t.Errorf("%s: samples %v: nothing verified or nothing traced", name, res.Samples)
		}
		for _, n := range contractEndToEnd {
			if res.EndToEnd[n] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, res.EndToEnd[n])
			}
		}
		for n := range res.PerLayer {
			produced[n] = true
		}
		for n := range res.EndToEnd {
			produced[n] = true
		}
	}
	layers, err := runLayers(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n, v := range layers {
		produced[n] = true
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("layer pass: %s = %v", n, v)
		}
	}
	for _, def := range perLayer {
		if !produced[def.name] {
			t.Errorf("per-layer metric %s is in the catalogue but nothing produced it", def.name)
		}
	}
}
