package core

import (
	"fmt"
	"strings"

	"astore/internal/expr"
	"astore/internal/obs"
	"astore/internal/query"
	"astore/internal/storage"
)

// Explain compiles the query and renders the resulting plan: the unified
// filter order with selectivities and per-filter zone-map pruning
// decisions, the predicate vectors built (and what was folded into them),
// the group dimensions with their cardinalities, the aggregation backend
// choice, and the recognized measure fast paths. Explain performs the
// leaf-processing phase (predicate and group vectors are actually built)
// and consults the root's zone maps, but scans nothing.
func (e *Engine) Explain(q *query.Query) (string, error) {
	pl, err := e.plan(q)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan %s (variant %s, workers %d)\n", q.Name, pl.variant, pl.opt.Workers)
	// The stage list matches the span names a traced execution records
	// (EXPLAIN ANALYZE in the shell, "trace": true over HTTP), so the
	// plan-only and timed renderings name the same stages.
	fmt.Fprintf(&sb, "stages: %s (timings via EXPLAIN ANALYZE or \"trace\": true)\n",
		strings.Join(obs.StageNames(), " -> "))
	fmt.Fprintf(&sb, "scan %s: %d rows in %d segments (%d sealed + tail)\n",
		pl.root.Name, pl.rootN, len(pl.planSegs), len(pl.planSegs)-1)

	// Zone-map pruning decisions: per filter, how many segments survive
	// its zone test alone; then the combined admission decision.
	total := len(pl.planSegs)
	nonEmpty := 0
	for i := range pl.planSegs {
		if pl.planSegs[i].N > 0 {
			nonEmpty++
		}
	}
	perFilterKept := make([]int, len(pl.filters))
	combinedKept := 0
	for i := range pl.planSegs {
		sv := &pl.planSegs[i]
		if sv.N == 0 {
			continue
		}
		all := true
		for fi := range pl.filters {
			if pl.filters[fi].mayMatchSegment(sv) {
				perFilterKept[fi]++
			} else {
				all = false
			}
		}
		if all {
			combinedKept++
		}
	}

	if len(pl.filters) == 0 {
		sb.WriteString("filters: none\n")
	} else {
		sb.WriteString("filters (most selective first):\n")
		for i, f := range pl.filters {
			prune := fmt.Sprintf("  segments: %d/%d after prune", perFilterKept[i], total)
			if f.root != nil {
				fmt.Fprintf(&sb, "  %d. scan  %-40s est sel %.4f%s\n",
					i+1, f.root.pred.String(), f.root.sel, prune)
				continue
			}
			kind := "probe (direct)"
			sel := fmt.Sprintf("est sel %.4f", f.probe.sel)
			if f.probe.vec != nil {
				kind = "probe (predicate vector)"
				sel = fmt.Sprintf("sel %.4f", f.probe.sel)
			}
			fmt.Fprintf(&sb, "  %d. %-24s %-15s via %s (%d AIR hop(s)), %s%s\n",
				i+1, kind, f.probe.table, f.probe.fk0, 1+len(f.probe.dimFKs), sel, prune)
		}
	}
	fmt.Fprintf(&sb, "segment admission: %d/%d segments scanned (%d pruned by zone maps, %d empty)\n",
		combinedKept, total, nonEmpty-combinedKept, total-nonEmpty)
	encoded := 0
	for i := range pl.planSegs {
		for _, c := range pl.planSegs[i].Cols {
			if storage.ChunkEncoding(c) != storage.EncPlain {
				encoded++
				break
			}
		}
	}
	if encoded > 0 {
		fmt.Fprintf(&sb, "encoded segments: %d/%d (RLE/FoR chunks read in place)\n", encoded, total)
	}
	if pl.aggCacheable() {
		fmt.Fprintf(&sb, "segment agg cache: enabled, budget %d MB — sealed segments merge cached partials, tail computed live (hits k / misses m / tail rows r via EXPLAIN ANALYZE)\n",
			pl.opt.AggCacheBytes>>20)
	} else {
		sb.WriteString("segment agg cache: disabled\n")
	}
	if len(pl.stats.PrefilterTables) > 0 {
		fmt.Fprintf(&sb, "predicate vectors on: %s (deeper filters folded in)\n",
			strings.Join(pl.stats.PrefilterTables, ", "))
	}

	if len(pl.dims) == 0 {
		sb.WriteString("grouping: none (global aggregate)\n")
	} else {
		sb.WriteString("grouping:\n")
		cells := 1
		for _, d := range pl.dims {
			src := "group vector + dictionary"
			switch d.kind {
			case gdRootDict:
				src = "fact dictionary codes"
			case gdRootNum:
				src = fmt.Sprintf("fact numeric, base %d", d.base)
			}
			fmt.Fprintf(&sb, "  %-20s cardinality %-8d %s\n", d.name, d.card, src)
			cells *= d.card
		}
		backend := "hash table"
		if pl.useArray {
			backend = "multidimensional array"
		}
		fmt.Fprintf(&sb, "aggregation backend: %s (%d cells)\n", backend, cells)
	}

	sb.WriteString("aggregates:\n")
	for _, ap := range pl.aggs {
		if ap.agg.Expr == nil {
			fmt.Fprintf(&sb, "  %-12s count(*)\n", ap.agg.As)
			continue
		}
		path := "generic evaluator"
		if ap.fastTry {
			switch ap.form {
			case expr.FCol:
				path = "dense column scan"
			case expr.FMulCols:
				path = "dense a*b scan"
			case expr.FSubCols:
				path = "dense a-b scan"
			case expr.FMulOneMinus:
				path = "dense a*(1-b) scan"
			}
		}
		fmt.Fprintf(&sb, "  %-12s %s(%s) — %s\n",
			ap.agg.As, ap.agg.Kind, expr.ExprString(ap.agg.Expr), path)
	}
	return sb.String(), nil
}
