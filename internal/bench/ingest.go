package bench

import (
	"context"
	"fmt"
	"time"

	"astore/internal/core"
	"astore/internal/datagen/ssb"
	"astore/internal/db"
	"astore/internal/query"
	"astore/internal/storage"
)

// The "ingest" experiment is not from the paper: it measures the serving
// properties of the fact-table layout — append-stable compiled plans and
// zone-map pruning — by appending rows while repeatedly executing a
// prepared SSB query, on a catalog whose fact table never seals and on one
// that seals segments.
//
//   - Plan stability: appends go to the mutable tail and the cached plan
//     keeps executing on both (plan_stale stays level while data_version
//     advances). What sealing adds is that only the tail is rescanned:
//     sealed segments answer from cached partials.
//   - Pruning: per-query segments_total/segments_pruned over the 13 SSB
//     queries on the segmented catalog (recorded into BENCH_*.json by
//     astore-bench -json).

func init() {
	register(Experiment{
		ID:    "ingest",
		Title: "Live ingest: plan stability and zone-map pruning (sealing vs never-sealing fact table)",
		Run:   runIngest,
	})
}

// protoRow extracts row 0 of a table as an Insert value map, used to
// synthesize append batches. Must be called before the table is given a
// sealing threshold (it reads whole columns).
func protoRow(t *storage.Table) (map[string]any, error) {
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("bench: table %s is empty", t.Name)
	}
	return rowAt(t, 0), nil
}

// rowAt extracts row i of a never-sealing table as an Insert value map.
func rowAt(t *storage.Table, i int) map[string]any {
	vals := make(map[string]any, len(t.ColumnNames()))
	for _, name := range t.ColumnNames() {
		c := t.Column(name)
		switch c.(type) {
		case *storage.Int32Col, *storage.Int64Col:
			v, _ := storage.Int64At(c, i)
			vals[name] = v
		case *storage.Float64Col:
			v, _ := storage.Float64At(c, i)
			vals[name] = v
		default:
			v, _ := storage.StringAt(c, i)
			vals[name] = v
		}
	}
	return vals
}

// ingestSetup measures one catalog layout: prepared-query latency while
// appending, and the resulting plan-cache behaviour.
func ingestSetup(cfg Config, segmentRows int, q *query.Query) ([]string, error) {
	data := ssb.Generate(ssb.Config{SF: cfg.SF, Seed: cfg.Seed})
	row, err := protoRow(data.Lineorder)
	if err != nil {
		return nil, err
	}
	d, err := db.Open(data.DB, core.Options{Workers: cfg.Workers, SegmentRows: segmentRows})
	if err != nil {
		return nil, err
	}
	p, err := d.Prepare(q)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if _, err := p.Exec(ctx); err != nil {
		return nil, err
	}

	const rounds, batch = 50, 200
	var execNS int64
	for r := 0; r < rounds; r++ {
		for i := 0; i < batch; i++ {
			if _, err := data.Lineorder.Insert(row); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if _, err := p.Exec(ctx); err != nil {
			return nil, err
		}
		execNS += time.Since(t0).Nanoseconds()
	}

	st := d.Stats()
	layout := "flat"
	if segmentRows > 0 {
		layout = fmt.Sprintf("segmented(%d)", segmentRows)
	}
	return []string{
		layout,
		fmt.Sprintf("%d", rounds*batch),
		fmt.Sprintf("%.2f", float64(execNS)/float64(rounds)/1e6),
		fmt.Sprintf("%d", st.PlanHits),
		fmt.Sprintf("%d", st.PlanStale),
		fmt.Sprintf("%d", st.PlanEvictions),
		fmt.Sprintf("%d", data.Lineorder.DataVersion()),
	}, nil
}

// segTargetFor picks a segment target that yields a meaningful number of
// segments at the experiment's scale factor.
func segTargetFor(rows int) int {
	target := rows / 32
	if target < 4096 {
		target = 4096
	}
	return target
}

func runIngest(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	probe := ssb.Generate(ssb.Config{SF: cfg.SF, Seed: cfg.Seed})
	target := segTargetFor(probe.Lineorder.NumRows())
	q := ssb.Q2_3()

	stability := &Report{
		ID:    "ingest-plans",
		Title: fmt.Sprintf("prepared %s while appending (SF %g)", q.Name, cfg.SF),
		Headers: []string{"layout", "rows appended", "avg exec (ms)",
			"plan_hits", "plan_stale", "plan_evictions", "data_version"},
		Notes: []string{
			"flat: the fact table never seals; the cached plan survives appends, every execution rescans every row",
			"segmented: appends go to the tail; sealed segments answer from cached partials",
		},
	}
	for _, segRows := range []int{0, target} {
		row, err := ingestSetup(cfg, segRows, q)
		if err != nil {
			return nil, err
		}
		stability.Rows = append(stability.Rows, row)
	}

	// Zone-map pruning across the full SSB suite on the segmented catalog.
	data := ssb.Generate(ssb.Config{SF: cfg.SF, Seed: cfg.Seed})
	d, err := db.Open(data.DB, core.Options{Workers: cfg.Workers, SegmentRows: target})
	if err != nil {
		return nil, err
	}
	pruning := &Report{
		ID:    "ingest-pruning",
		Title: fmt.Sprintf("zone-map pruning per SSB query (segment target %d rows)", target),
		Headers: []string{"query", "best (ms)", "segments_total", "segments_pruned",
			"rows_scanned"},
	}
	ctx := context.Background()
	for _, q := range ssb.Queries() {
		p, err := d.Prepare(q)
		if err != nil {
			return nil, err
		}
		var stats core.Stats
		best, err := best(cfg.Runs, func() error {
			_, err := p.ExecStats(ctx, &stats)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		pruning.Rows = append(pruning.Rows, []string{
			q.Name, ms(best),
			fmt.Sprintf("%d", stats.SegmentsTotal),
			fmt.Sprintf("%d", stats.SegmentsPruned),
			fmt.Sprintf("%d", stats.RowsScanned),
		})
	}
	return []*Report{stability, pruning}, nil
}
