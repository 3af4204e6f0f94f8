package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"astore/internal/agg"
	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/db"
	"astore/internal/expr"
	"astore/internal/server"
	"astore/internal/shard"
	"astore/internal/sql"
	"astore/internal/storage"
)

// The in-process layer pass calls each package's public functions on data
// generated with the pinned seed and times them from the harness's side of
// the call. It is single-threaded, so its counts repeat exactly; its times
// are medians of layerReps calls.
const layerReps = 3

// layerStmtSeed fixes the statements of the pass: per-layer numbers must not
// move with the workload seed.
const layerStmtSeed = 1

// layout is one physical shape of the fact table.
type layout struct {
	name           string
	encode, sorted bool
}

var (
	layoutPlain         = layout{name: "plain"}
	layoutEncoded       = layout{name: "encoded", encode: true}
	layoutSortedEncoded = layout{name: "sorted_encoded", encode: true, sorted: true}
)

// openLayout generates SSB at sf and opens it the way astore-serve does:
// segmented, optionally encoded, and re-sorted up front when it has sort
// keys. It returns the time the re-sort took.
func openLayout(cfg config, sf float64, l layout, aggCacheBytes int64) (*ssb.Data, *db.DB, time.Duration, error) {
	data := ssb.Generate(ssb.Config{SF: sf, Seed: cfg.dataSeed})
	opt := core.Options{SegmentRows: storage.DefaultSegmentRows, AggCacheBytes: aggCacheBytes, SealedEncodings: l.encode}
	if l.sorted {
		opt.SortKeys = []string{"lo_orderdate"}
	}
	d, err := db.Open(data.DB, opt)
	if err != nil {
		return nil, nil, 0, err
	}
	var sortTime time.Duration
	if l.sorted {
		t0 := time.Now()
		if _, err := storage.Consolidate(data.DB, data.Lineorder); err != nil {
			return nil, nil, 0, err
		}
		sortTime = time.Since(t0)
	}
	return data, d, sortTime, nil
}

// medianOf times fn reps times and returns the median.
func medianOf(reps int, fn func() error) (time.Duration, error) {
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times[i] = float64(time.Since(t0))
	}
	return time.Duration(median(times)), nil
}

// mallocs counts heap allocations made by fn.
func mallocs(fn func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// prepared is the 13 SSB statements prepared on one DB, in warmStream order.
type prepared struct {
	stmts []string
	byTag map[string]*db.Prepared // "Q1.1", "Q3.1"
	all   []*db.Prepared
}

func prepareAll(d *db.DB) (*prepared, error) {
	p := &prepared{stmts: warmStream(layerStmtSeed), byTag: make(map[string]*db.Prepared)}
	tagged := ssb.QueriesSQL()
	for _, s := range p.stmts {
		ps, err := d.PrepareSQL(s)
		if err != nil {
			return nil, fmt.Errorf("prepare %q: %w", s, err)
		}
		p.all = append(p.all, ps)
		for _, tag := range []string{"Q1.1", "Q3.1"} {
			if oneLine(tagged[tag]) == s {
				p.byTag[tag] = ps
			}
		}
	}
	return p, nil
}

// execAll runs every prepared statement once and returns the summed stats of
// the pass.
func (p *prepared) execAll(ctx context.Context) (core.Stats, error) {
	var total core.Stats
	for _, ps := range p.all {
		var st core.Stats
		if _, err := ps.ExecStats(ctx, &st); err != nil {
			return total, err
		}
		total.RowsScanned += st.RowsScanned
	}
	return total, nil
}

// all13 is the median time of one pass over the 13 statements.
func (p *prepared) all13(ctx context.Context) (time.Duration, error) {
	return medianOf(layerReps, func() error { _, err := p.execAll(ctx); return err })
}

// nsPerRow is the median time of one statement divided by the fact rows.
func nsPerRow(ctx context.Context, ps *db.Prepared, rows int) (float64, error) {
	d, err := medianOf(layerReps, func() error { _, err := ps.Exec(ctx); return err })
	return float64(d) / float64(rows), err
}

// runLayers is the in-process layer pass. Every value it returns is named in
// BENCHMARK.json's per_layer list.
func runLayers(ctx context.Context, cfg config) (map[string]float64, error) {
	m := make(map[string]float64)
	steps := []func(context.Context, config, map[string]float64) error{
		layerSQL, layerPlainCold, layerPlainCached, layerEncoded, layerSweep,
	}
	for _, step := range steps {
		if err := step(ctx, cfg, m); err != nil {
			return nil, err
		}
		// Each step drops a generated database; return it before the next
		// step's timings start.
		runtime.GC()
	}
	m["paper.air_speedup_ratio"] = m["baseline.hashjoin_all13_ms"] / m["core.all13_cold_ms.plain"]
	m["core.install_penalty_ratio"] = m["core.first_exec_ms.plain"] / m["core.all13_cold_ms.plain"]
	return m, nil
}

// layerSQL times the parser alone over the 13 statements.
func layerSQL(_ context.Context, _ config, m map[string]float64) error {
	stmts := warmStream(layerStmtSeed)
	const rounds = 200
	parse := func() error {
		for i := 0; i < rounds; i++ {
			for _, s := range stmts {
				if _, err := sql.Parse(s); err != nil {
					return err
				}
			}
		}
		return nil
	}
	d, err := medianOf(layerReps, parse)
	if err != nil {
		return err
	}
	n, err := mallocs(parse)
	m["sql.parse_us"] = us(d) / float64(rounds*len(stmts))
	m["sql.parse_allocs"] = float64(n) / float64(rounds*len(stmts))
	return err
}

// layerPlainCold measures the scan engine with the aggregate cache off over
// plain segments: the paper's cost per tuple, the partial/merge path the
// shard layer uses, the hash-join baseline beside it, and the two-worker
// coordinator over the same DB.
func layerPlainCold(ctx context.Context, cfg config, m map[string]float64) error {
	data, d, _, err := openLayout(cfg, cfg.sf, layoutPlain, -1)
	if err != nil {
		return err
	}
	rows := data.Lineorder.NumRows()
	p, err := prepareAll(d)
	if err != nil {
		return err
	}
	cold, err := p.all13(ctx)
	if err != nil {
		return err
	}
	m["core.all13_cold_ms.plain"] = ms(cold)
	if m["core.q1_1_ns_per_row.plain"], err = nsPerRow(ctx, p.byTag["Q1.1"], rows); err != nil {
		return err
	}
	if m["core.q3_1_ns_per_row.plain"], err = nsPerRow(ctx, p.byTag["Q3.1"], rows); err != nil {
		return err
	}
	n, err := mallocs(func() error { _, err := p.execAll(ctx); return err })
	if err != nil {
		return err
	}
	m["core.allocs_per_exec.cold"] = float64(n) / float64(len(p.all))
	st, err := p.execAll(ctx)
	if err != nil {
		return err
	}
	m["core.rows_scanned_per_exec.cold"] = float64(st.RowsScanned) / float64(len(p.all))

	if err := layerPartials(ctx, p, m); err != nil {
		return err
	}

	// Two in-process workers over the same DB against the DB alone: what the
	// coordinator's scatter, capture and merge cost with no network.
	coord, err := shard.New(d, shard.NewLocalWorkers(d, 2), shard.Options{})
	if err != nil {
		return err
	}
	local2, err := medianOf(layerReps, func() error {
		for _, s := range p.stmts {
			if _, _, err := coord.Exec(ctx, s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["shard.local2_all13_ms"] = ms(local2)
	m["shard.overhead_ratio"] = float64(local2) / float64(cold)

	// The hash-join engine on a flat copy of the same data (it does not read
	// segmented tables): one pass, because it is the slowest thing the
	// harness runs.
	o := newOracle(cfg)
	t0 := time.Now()
	for _, s := range p.stmts {
		if _, err := o.expect(s); err != nil {
			return err
		}
	}
	m["baseline.hashjoin_all13_ms"] = ms(time.Since(t0))
	return nil
}

// layerPartials times the shard-local execution path piece by piece on Q1.1
// (one cell) and Q3.1 (many groups), and the whole path over all 13.
func layerPartials(ctx context.Context, p *prepared, m map[string]float64) error {
	const nshards = 2
	var exec, merge time.Duration
	for _, ps := range p.all {
		parts := make([]*agg.Partial, nshards)
		d, err := medianOf(layerReps, func() error {
			for i := range parts {
				var st core.Stats
				r, err := ps.ExecPartial(ctx, db.PartialRequest{Shard: i, NShards: nshards}, &st)
				if err != nil {
					return err
				}
				parts[i] = r.Partial
			}
			return nil
		})
		if err != nil {
			return err
		}
		exec += d
		if d, err = medianOf(layerReps, func() error {
			var st core.Stats
			_, err := ps.MergePartials(ctx, parts, &st)
			return err
		}); err != nil {
			return err
		}
		merge += d
	}
	m["core.exec_partial_ms"] = ms(exec)
	m["core.merge_partials_us"] = us(merge)

	for tag, suffix := range map[string]string{"Q1.1": ".q1_1", "Q3.1": ".q3_1"} {
		ps := p.byTag[tag]
		var st core.Stats
		r, err := ps.ExecPartial(ctx, db.PartialRequest{}, &st)
		if err != nil {
			return err
		}
		part := r.Partial
		var wire []byte
		const rounds = 100
		d, err := medianOf(layerReps, func() error {
			for i := 0; i < rounds; i++ {
				if wire, err = part.MarshalBinary(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		m["agg.marshal_us"+suffix] = us(d) / rounds
		m["agg.partial_bytes"+suffix] = float64(len(wire))
		if d, err = medianOf(layerReps, func() error {
			for i := 0; i < rounds; i++ {
				if _, err := agg.UnmarshalPartial(wire); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		m["agg.unmarshal_us"+suffix] = us(d) / rounds
		if d, err = timeMerge(part, ps, rounds); err != nil {
			return err
		}
		m["agg.merge_us"+suffix] = us(d) / rounds
	}
	return nil
}

// timeMerge folds one partial into a live aggregation state rounds times.
// A Partial does not say which form it has, so the array form is tried first:
// an array as large as the planner's cell bound accepts any array partial.
func timeMerge(part *agg.Partial, ps *db.Prepared, rounds int) (time.Duration, error) {
	kinds := make([]expr.AggKind, len(ps.Query().Aggs))
	for i, a := range ps.Query().Aggs {
		kinds[i] = a.Kind
	}
	arr, err := agg.NewArrayAgg([]int{1 << 20}, kinds)
	if err != nil {
		return 0, err
	}
	if err := part.MergeIntoArray(arr); err != nil {
		return medianOf(layerReps, func() error {
			for i := 0; i < rounds; i++ {
				if err := part.MergeIntoHash(agg.NewHashAgg(kinds)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return medianOf(layerReps, func() error {
		for i := 0; i < rounds; i++ {
			arr.Reset()
			if err := part.MergeIntoArray(arr); err != nil {
				return err
			}
		}
		return nil
	})
}

// layerPlainCached measures what sits around the scan with the aggregate
// cache on: the first execution that installs partials, the warm path, plan
// cache hit and miss, the HTTP handler without a socket, snapshots, appends,
// seals and the persisted image.
func layerPlainCached(ctx context.Context, cfg config, m map[string]float64) error {
	data, d, _, err := openLayout(cfg, cfg.sf, layoutPlain, 0)
	if err != nil {
		return err
	}
	fact := data.Lineorder
	comp := fact.Compression()
	m["storage.bytes_per_row.plain"] = float64(comp.PhysicalBytes) / float64(fact.NumRows())

	p, err := prepareAll(d)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := p.execAll(ctx); err != nil {
		return err
	}
	m["core.first_exec_ms.plain"] = ms(time.Since(t0))
	warm, err := p.all13(ctx)
	if err != nil {
		return err
	}
	m["core.all13_warm_ms.plain"] = ms(warm)
	n, err := mallocs(func() error { _, err := p.execAll(ctx); return err })
	if err != nil {
		return err
	}
	m["core.allocs_per_exec.warm"] = float64(n) / float64(len(p.all))
	st, err := p.execAll(ctx)
	if err != nil {
		return err
	}
	m["core.rows_scanned_per_exec.warm"] = float64(st.RowsScanned) / float64(len(p.all))

	// Plan cache: the same 13 texts again against texts never seen.
	const rounds = 50
	hit, err := medianOf(layerReps, func() error {
		for i := 0; i < rounds; i++ {
			for _, s := range p.stmts {
				if _, err := d.PrepareSQL(s); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["db.prepare_hit_us"] = us(hit) / float64(rounds*len(p.stmts))
	fresh := adhocStream(layerStmtSeed, layerReps*len(adhocTemplates))
	miss, err := medianOf(layerReps, func() error {
		batch := fresh[:len(adhocTemplates)]
		fresh = fresh[len(adhocTemplates):]
		for _, s := range batch {
			if _, err := d.PrepareSQL(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["db.prepare_miss_us"] = us(miss) / float64(len(adhocTemplates))

	// The whole handler, JSON in and out, with a recorder in place of a
	// socket: client wall minus this is the network's and the kernel's.
	h := server.New(d, server.Config{}).Handler()
	bodies := make([][]byte, len(p.stmts))
	for i, s := range p.stmts {
		bodies[i] = queryBody(s, false)
	}
	handler, err := medianOf(layerReps, func() error {
		for i := 0; i < rounds; i++ {
			for _, b := range bodies {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(b)))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("handler: %d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["server.handler_us"] = us(handler) / float64(rounds*len(bodies))

	snap, err := medianOf(layerReps, func() error {
		for i := 0; i < 1000; i++ {
			fact.Snapshot().Release()
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["storage.snapshot_us"] = us(snap) / 1000

	perRow, seal, err := appendAndSeal(cfg, fact)
	m["storage.append_us_per_row"] = perRow
	m["storage.seal_ms.plain"] = seal
	return err
}

// appendAndSeal inserts rows until the tail has sealed layerReps times. It
// returns the median cost of a plain insert and of the insert that seals.
func appendAndSeal(cfg config, fact *storage.Table) (usPerRow, sealMS float64, err error) {
	pool, err := appendPool(layerStmtSeed, cfg.sf, 1, appendBatchRows)
	if err != nil {
		return 0, 0, err
	}
	rows := pool[0].rows
	var seals, fills []float64
	for i := 0; len(seals) < layerReps; i++ {
		sealedBefore, _ := fact.SegmentCounts()
		t0 := time.Now()
		if _, err := fact.Insert(rows[i%len(rows)]); err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		if sealedAfter, _ := fact.SegmentCounts(); sealedAfter > sealedBefore {
			seals = append(seals, ms(d))
		} else if i%64 == 0 { // a sample of the plain inserts is enough
			fills = append(fills, us(d))
		}
	}
	return median(fills), median(seals), nil
}

// layerEncoded measures the two encoded layouts: what encoding alone costs a
// cold scan, and what sorting first buys it.
func layerEncoded(ctx context.Context, cfg config, m map[string]float64) error {
	for _, l := range []layout{layoutEncoded, layoutSortedEncoded} {
		data, d, sortTime, err := openLayout(cfg, cfg.sf, l, -1)
		if err != nil {
			return err
		}
		fact := data.Lineorder
		rows := fact.NumRows()
		m["storage.bytes_per_row."+l.name] = float64(fact.Compression().PhysicalBytes) / float64(rows)
		if l.sorted {
			m["storage.consolidate_sort_ms"] = ms(sortTime)
		}
		p, err := prepareAll(d)
		if err != nil {
			return err
		}
		cold, err := p.all13(ctx)
		if err != nil {
			return err
		}
		m["core.all13_cold_ms."+l.name] = ms(cold)
		if m["core.q1_1_ns_per_row."+l.name], err = nsPerRow(ctx, p.byTag["Q1.1"], rows); err != nil {
			return err
		}
		if m["core.q3_1_ns_per_row."+l.name], err = nsPerRow(ctx, p.byTag["Q3.1"], rows); err != nil {
			return err
		}
		if !l.sorted {
			if _, m["storage.seal_ms.encoded"], err = appendAndSeal(cfg, fact); err != nil {
				return err
			}
		}
		runtime.GC()
	}
	return nil
}

// sweepPoints are the smaller scale factors of the size-against-time curve,
// as shares of the base scale factor: SF 0.1 and 0.25 under the pinned 0.5.
var sweepPoints = []struct {
	share float64
	name  string
}{{0.2, "sf0.1"}, {0.5, "sf0.25"}}

// layerSweep repeats the cold and warm all-13 pass at the smaller scale
// factors. Cold should scale with rows and warm with the tail only.
func layerSweep(ctx context.Context, cfg config, m map[string]float64) error {
	for _, pt := range sweepPoints {
		for _, cache := range []struct {
			bytes int64
			name  string
		}{{-1, "cold"}, {0, "warm"}} {
			data, d, _, err := openLayout(cfg, cfg.sf*pt.share, layoutPlain, cache.bytes)
			if err != nil {
				return err
			}
			p, err := prepareAll(d)
			if err != nil {
				return err
			}
			if _, err := p.execAll(ctx); err != nil { // fills the cache when it is on
				return err
			}
			t, err := p.all13(ctx)
			if err != nil {
				return err
			}
			m["core.all13_"+cache.name+"_ms."+pt.name] = ms(t)
			if pt == sweepPoints[0] && cache.bytes < 0 {
				if err := layerImage(data, m); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// layerImage round-trips the persisted image of the smallest sweep point
// (SF 0.1 under the pinned configuration). No workload restarts from an
// image yet, so the pass spends a fifth of the base size's time on it.
func layerImage(data *ssb.Data, m map[string]float64) error {
	var img bytes.Buffer
	t0 := time.Now()
	if err := data.DB.Save(&img); err != nil {
		return err
	}
	m["storage.save_image_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	_, err := storage.LoadDatabase(bytes.NewReader(img.Bytes()))
	m["storage.load_image_ms"] = ms(time.Since(t0))
	return err
}
