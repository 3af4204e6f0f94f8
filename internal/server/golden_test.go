package server

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/db"
	"astore/internal/shard"
)

var updateSurface = flag.Bool("update-surface", false, "rewrite the golden /metrics and /v1/stats surface files")

// collapsedStatsPaths are the /v1/stats objects keyed by data (endpoint,
// table and filter names); the surface records their keys as "*".
var collapsedStatsPaths = map[string]bool{
	"endpoints":          true,
	"tables":             true,
	"db.prune_by_filter": true,
}

// get fetches url and returns the body, failing the test on a non-200.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return b
}

// statsKeyPaths lists every key path of a decoded /v1/stats body, with the
// keys of collapsedStatsPaths objects replaced by "*".
func statsKeyPaths(prefix string, v any, into map[string]bool) {
	m, ok := v.(map[string]any)
	if !ok {
		return
	}
	for k, child := range m {
		if collapsedStatsPaths[prefix] {
			k = "*"
		}
		p := k
		if prefix != "" {
			p = prefix + "." + k
		}
		into[p] = true
		statsKeyPaths(p, child, into)
	}
}

// servingSurface renders what a scraper can rely on: the sorted # HELP and
// # TYPE lines of /metrics, then the sorted /v1/stats key paths.
func servingSurface(t *testing.T, base string) string {
	t.Helper()
	var comments []string
	for _, line := range strings.Split(string(get(t, base+"/metrics")), "\n") {
		if strings.HasPrefix(line, "# ") {
			comments = append(comments, line)
		}
	}
	sort.Strings(comments)
	var body any
	if err := json.Unmarshal(get(t, base+"/v1/stats"), &body); err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool)
	statsKeyPaths("", body, set)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return "/metrics\n" + strings.Join(comments, "\n") + "\n\n/v1/stats\n" + strings.Join(keys, "\n") + "\n"
}

// checkSurface compares the surface against testdata/name, or rewrites the
// file under -update-surface.
func checkSurface(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateSurface {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-surface to record it)", err)
	}
	if got != string(want) {
		t.Errorf("serving surface differs from %s; a metric or /v1/stats key was added, renamed or removed.\ngot:\n%s", path, got)
	}
}

// surfaceTraffic drives the requests that make every omitempty block of
// /v1/stats appear: a query whose filter prunes every segment by its zone map.
func surfaceTraffic(t *testing.T, base string) {
	t.Helper()
	body := `{"sql":"SELECT sum(lo_revenue) AS rev FROM lineorder WHERE lo_quantity > 50"}`
	if resp, raw := post(t, base+"/v1/query", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, raw)
	}
}

// TestServingSurfaceGolden pins the names, help texts and kinds of every
// /metrics family and every /v1/stats key, on a single node and on a
// coordinator over two in-process workers.
func TestServingSurfaceGolden(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		_, ts, _, _ := newSSBServer(t, 0.005, Config{}, core.Options{SegmentRows: 4096})
		surfaceTraffic(t, ts.URL)
		checkSurface(t, "surface_single.golden", servingSurface(t, ts.URL))
	})
	t.Run("coordinator", func(t *testing.T) {
		_, ts := newLocalCoordinator(t, Config{})
		surfaceTraffic(t, ts.URL)
		checkSurface(t, "surface_coordinator.golden", servingSurface(t, ts.URL))
	})
}

// newLocalCoordinator mounts a coordinator server over two in-process
// workers sharing its DB.
func newLocalCoordinator(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	data := ssb.Generate(ssb.Config{SF: 0.005, Seed: 1})
	d, err := db.Open(data.DB, core.Options{SegmentRows: 4096})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := shard.New(d, shard.NewLocalWorkers(d, 2), shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Coordinator = coord
	srv := New(d, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}
