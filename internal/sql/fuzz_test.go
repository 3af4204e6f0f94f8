package sql

import (
	"runtime"
	"sort"
	"testing"

	"astore/internal/datagen/ssb"
)

// FuzzParseStatement: whatever text a client posts to /v1/query, the one
// query front end answers with an error or with a statement; it never
// panics, an accepted statement's canonical rendering parses again, and
// parsing allocates at most a constant multiple of the input size.
func FuzzParseStatement(f *testing.F) {
	queries := ssb.QueriesSQL()
	names := make([]string, 0, len(queries))
	for name := range queries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(queries[name])
	}
	// The statements the serving layer's bad-request tests send.
	for _, bad := range []string{
		"SELEC",
		"SELECT count(*) AS n FROM lineorder; DROP TABLE lineorder",
		"SELECT count(*) AS n FROM lineorder WHERE no_such_col = 1",
		"SELECT median(lo_revenue) AS m FROM lineorder",
		"SELECT count(*) AS n FROM lineorder WHERE d_year ~ 1",
		"SELECT sum(lo_revenue +) AS r FROM lineorder",
		"SELECT d_year FROM lineorder GROUP BY d_year",
	} {
		f.Add(bad)
	}
	// An escaped quote, so the round trip covers the renderer's quoting.
	f.Add("SELECT count(*) AS n FROM customer WHERE c_name = 'it''s'")
	f.Fuzz(func(t *testing.T, src string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := ParseStatement(src)
		runtime.ReadMemStats(&after)
		if err == nil && st == nil {
			t.Fatal("nil statement without an error")
		}
		const fixed, perByte = 1 << 20, 256
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > fixed+perByte*uint64(len(src)) {
			t.Fatalf("parsing %d bytes allocated %d bytes", len(src), alloc)
		}
		if err != nil {
			return
		}
		text := Render(st.Query)
		if _, err := ParseStatement(text); err != nil {
			t.Fatalf("rendering of %q does not parse: %v\n%s", src, err, text)
		}
	})
}
