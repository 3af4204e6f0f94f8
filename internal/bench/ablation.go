package bench

import (
	"fmt"
	"time"

	"astore/internal/core"
	"astore/internal/datagen/ssb"
)

func init() {
	register(Experiment{
		ID: "ablation",
		Title: "Design-choice ablation: predicate vectors, array aggregation, " +
			"column-wise scan, parallel scaling (the paper's §4–§5 choices)",
		Run: runAblation,
	})
}

// runAblation isolates each optimization of the paper's §4–§5 in turn,
// using the full SSB suite average as the metric:
//
//   - baseline: the full engine (optimizer on);
//   - -prefilter: predicate vectors disabled (dimension predicates probed
//     through AIR chains during the scan);
//   - -arrayagg: the multidimensional aggregation array disabled (hash
//     aggregation for every query);
//   - -colwise: tuple-at-a-time scanning (both previous optimizations on);
//   - workers=N: parallel speedup of the full engine (§5), which on a
//     single-core host shows scheduling overhead rather than speedup.
func runAblation(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	data := ssbData(cfg)
	queries := ssb.Queries()

	type variant struct {
		name string
		opt  core.Options
	}
	variants := []variant{
		{"full engine", core.Options{Variant: core.Auto, Workers: cfg.Workers}},
		{"-prefilter", core.Options{Variant: core.Auto, Workers: cfg.Workers, PrefilterMaxRows: 1}},
		{"-arrayagg", core.Options{Variant: core.Auto, Workers: cfg.Workers, MaxArrayGroups: 1}},
		{"-colwise", core.Options{Variant: core.RowWisePF, Workers: cfg.Workers}},
		{"workers=1", core.Options{Variant: core.Auto, Workers: 1}},
		{"workers=2", core.Options{Variant: core.Auto, Workers: 2}},
		{"workers=4", core.Options{Variant: core.Auto, Workers: 4}},
	}
	rep := &Report{
		ID:      "ablation",
		Title:   fmt.Sprintf("SSB SF=%g: average query time per ablated engine", cfg.SF),
		Headers: []string{"configuration", "avg (ms)", "vs full"},
	}
	// Warm the freshly generated data (page faults, lazily built caches)
	// before any configuration is timed, so the first row is not penalized.
	warm, err := core.New(data.Lineorder, core.Options{})
	if err != nil {
		return nil, err
	}
	for _, q := range queries {
		if _, err := warm.Run(q); err != nil {
			return nil, err
		}
	}
	var fullAvg float64
	for _, v := range variants {
		eng, err := core.New(data.Lineorder, v.opt)
		if err != nil {
			return nil, err
		}
		var total time.Duration
		for _, q := range queries {
			d, err := best(cfg.Runs, func() error {
				_, err := eng.Run(q)
				return err
			})
			if err != nil {
				return nil, err
			}
			total += d
		}
		avg := float64(total.Nanoseconds()) / float64(len(queries)) / 1e6
		if v.name == "full engine" {
			fullAvg = avg
		}
		rel := "1.00x"
		if fullAvg > 0 {
			rel = fmt.Sprintf("%.2fx", avg/fullAvg)
		}
		rep.Rows = append(rep.Rows, []string{v.name, fmt.Sprintf("%.2f", avg), rel})
	}
	return []*Report{rep}, nil
}
