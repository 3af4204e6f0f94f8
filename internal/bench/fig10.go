package bench

import (
	"context"
	"fmt"
	"time"

	"astore/internal/core"
	"astore/internal/datagen/ssb"
)

func init() {
	register(Experiment{
		ID: "fig10",
		Title: "Breakdown of processing time per stage " +
			"(Fig. 10: leaf processing / FK + measure index / aggregation)",
		Run: runFig10,
	})
}

// runFig10 reproduces Fig. 10: for the three column-wise variants, the
// average SSB query time split into the three stages of the query
// processing model — (1) leaf-table processing (predicate vectors and group
// vectors), (2) foreign-key column processing (selection and measure-index
// generation), (3) measure-column scan and aggregation. Expected shape:
// the leaf stage is tiny (dimensions are small); array aggregation cuts
// the final stage by nearly an order of magnitude versus hash aggregation.
func runFig10(cfg Config) ([]*Report, error) {
	cfg = cfg.withDefaults()
	data := ssbData(cfg)
	queries := ssb.Queries()

	rep := &Report{
		ID:    "fig10",
		Title: fmt.Sprintf("average stage time over 13 SSB queries, SF=%g", cfg.SF),
		Headers: []string{"variant", "leaf (ms)", "scan+mindex (ms)",
			"measure agg (ms)", "total (ms)"},
		Notes: []string{
			"AIRScan_C builds no predicate/group vectors, so its leaf stage is ~0",
		},
	}
	for _, v := range []core.Variant{core.ColWise, core.ColWisePF, core.ColWisePFG} {
		eng, err := core.New(data.Lineorder, core.Options{Variant: v, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		var leaf, scan, agg int64
		for _, q := range queries {
			bestTotal := int64(1<<63 - 1)
			var bestStats core.Stats
			for r := 0; r < cfg.Runs; r++ {
				var st core.Stats
				v := eng.Acquire()
				c, err := v.Compile(q)
				if err == nil {
					_, err = eng.Exec(context.Background(), v, c, &st)
				}
				v.Release()
				if err != nil {
					return nil, err
				}
				if t := st.LeafNS + st.ScanNS + st.AggNS; t < bestTotal {
					bestTotal = t
					bestStats = st
				}
			}
			leaf += bestStats.LeafNS
			scan += bestStats.ScanNS
			agg += bestStats.AggNS
		}
		n := int64(len(queries))
		rep.Rows = append(rep.Rows, []string{
			v.String(),
			ms(time.Duration(leaf / n)),
			ms(time.Duration(scan / n)),
			ms(time.Duration(agg / n)),
			ms(time.Duration((leaf + scan + agg) / n)),
		})
	}
	return []*Report{rep}, nil
}
