// Package core implements the A-Store query engine: the generic three-phase
// SPJGA processing model of §3 (scan-and-filter, grouping, aggregation) over
// the virtual universal table, the optimizations of §4 (vector-based
// column-wise scan, predicate filters, array-based column-wise aggregation),
// and the multicore parallelization of §5.
//
// There is one execution pipeline, whatever the variant and whoever asks:
//
//	admit → units → workers → agg.State → finalize | capture
//
// admit prunes the fact table's segments by zone map, serves sealed segments
// from the per-segment aggregate cache and binds the rest; the survivors
// become units (whole sealed segments whose partial is installed in the
// cache, and morsels of the mutable tail); a pool of workers aggregates its
// units into private states, which are merged together with the cached
// partials into one agg.State. Engine.Exec finalizes that state into
// ordered rows; Engine.ExecPartial captures it as an agg.Partial for a
// shard coordinator; Engine.MergePartials finalizes a fresh state that such
// partials were merged into. Single-node execution is the one-shard case.
//
// The five scan variants of Table 6 of the paper are kernels and backends
// of that one driver, so the contribution of each optimization can be
// measured in isolation:
//
//	AIRScan_R      row-wise kernel, hash state
//	AIRScan_R_P    row-wise kernel + predicate vectors, hash state
//	AIRScan_C      vector-based column-wise kernel, hash state
//	AIRScan_C_P    column-wise kernel + predicate vectors, hash state
//	AIRScan_C_P_G  column-wise kernel + predicate vectors, array state
//
// The Auto variant is AIRScan_C_P_G guarded by the optimizer: predicate
// vectors are used only for dimension tables small enough to stay cache
// resident, and the multidimensional aggregation array is used only when its
// estimated size is dense enough, falling back to hash aggregation
// otherwise (§4.2–4.3). The kernel and the backend are chosen once, when
// the plan is compiled; the row-wise variants additionally opt out of the
// aggregate cache, because they exist to measure the uncached scan.
package core

import "fmt"

// Variant selects a query-processor variant (Table 6 of the paper).
type Variant uint8

// Engine variants.
const (
	// Auto lets the optimizer choose: column-wise scan, predicate vectors
	// where they fit the cache budget, array aggregation where dense.
	Auto Variant = iota
	// RowWise is AIRScan_R: row-wise scan, no predicate vectors, hash
	// aggregation.
	RowWise
	// RowWisePF is AIRScan_R_P: row-wise scan with predicate vectors.
	RowWisePF
	// ColWise is AIRScan_C: vector-based column-wise scan, dimension
	// predicates probed through AIR chains, hash aggregation.
	ColWise
	// ColWisePF is AIRScan_C_P: column-wise scan with predicate vectors.
	ColWisePF
	// ColWisePFG is AIRScan_C_P_G: column-wise scan, predicate vectors,
	// group vectors and array-based aggregation.
	ColWisePFG
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case Auto:
		return "A-Store"
	case RowWise:
		return "AIRScan_R"
	case RowWisePF:
		return "AIRScan_R_P"
	case ColWise:
		return "AIRScan_C"
	case ColWisePF:
		return "AIRScan_C_P"
	case ColWisePFG:
		return "AIRScan_C_P_G"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// usesPrefilters reports whether the variant builds predicate vectors.
func (v Variant) usesPrefilters() bool {
	switch v {
	case RowWisePF, ColWisePF, ColWisePFG, Auto:
		return true
	}
	return false
}

// rowWise reports whether the variant scans tuples row-at-a-time.
func (v Variant) rowWise() bool { return v == RowWise || v == RowWisePF }

// Options configure an Engine.
type Options struct {
	// Variant selects the query processor; the zero value is Auto.
	Variant Variant
	// Workers is the number of worker goroutines for the parallel scan
	// (§5). Values below 1 mean serial execution.
	Workers int
	// PrefilterMaxRows is the optimizer's cache budget for predicate
	// vectors, in dimension rows (one bit each). Auto builds a predicate
	// vector only for tables at most this large; explicit _P variants
	// always build them. Default 32M rows (a 4 MB bit vector).
	PrefilterMaxRows int
	// MaxArrayGroups is the optimizer's bound on aggregation-array cells;
	// beyond it, Auto falls back to hash aggregation. Default 1M cells.
	MaxArrayGroups int
	// BatchRows caps the number of root rows per scan batch. Context
	// cancellation is honored between batches whichever kernel scans them,
	// so smaller batches cancel more promptly at a small scheduling cost.
	// Default 64K rows.
	BatchRows int
	// SegmentRows, when positive, makes db.Open give every fact table this
	// sealing threshold (storage.SetSegmentTarget): the tail seals when it
	// reaches it, per-segment zone maps prune scans, and sealed segments'
	// partial aggregates are cacheable. Zero leaves each table as it is —
	// all tail, unless a loaded image says otherwise. The engine itself
	// does not consult this field.
	SegmentRows int
	// SortKeys, when non-empty, makes db.Open configure every fact table
	// to re-sort surviving rows by these columns (integer or
	// dict-coded) during Consolidate, before sealing. Clustering by the
	// sort key tightens zone maps and lengthens runs, which is what makes
	// the sealed-segment encodings below pay off. Keys missing from a
	// fact table are ignored for that table. The engine itself does not
	// consult this field.
	SortKeys []string
	// AggCacheBytes bounds the engine's per-segment aggregate cache: each
	// compiled plan's partial aggregate over a sealed segment is cached
	// (keyed by plan instance, segment, epoch, and delete generation) so
	// repeated executions merge stored partials instead of re-scanning
	// sealed data, and only the mutable tail is computed live. Zero means
	// DefaultAggCacheBytes; negative disables the cache. Eviction is
	// byte-accounted LRU.
	AggCacheBytes int64
	// SealedEncodings, when true, makes db.Open enable the two compressed
	// chunk encodings (RLE, over integers and dictionary codes, and
	// frame-of-reference bit-packing of integers) on sealed segments of
	// every segmented fact table. Chunks are encoded at seal time only when
	// the encoded form is at most half the plain size. Every scan variant
	// reads encoded chunks where they lie — RLE run by run, FoR field by
	// field at the selected rows — and never decodes them. The engine
	// itself does not consult this field.
	SealedEncodings bool
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.PrefilterMaxRows == 0 {
		o.PrefilterMaxRows = 32 << 20
	}
	if o.MaxArrayGroups == 0 {
		o.MaxArrayGroups = 1 << 20
	}
	if o.BatchRows < 1 {
		o.BatchRows = 1 << 16
	}
	if o.AggCacheBytes == 0 {
		o.AggCacheBytes = DefaultAggCacheBytes
	}
	return o
}

// Stats reports how a query executed: per-phase wall time attribution
// (summed across workers and divided by the worker count for the parallel
// phases) and optimizer decisions. Phase boundaries follow Fig. 10 of the
// paper: leaf processing, foreign-key processing (selection plus measure
// index), and measure aggregation.
type Stats struct {
	// LeafNS is time spent processing leaf tables: predicate vectors and
	// group vectors/dictionaries.
	LeafNS int64
	// ScanNS is time spent scanning the root: predicate evaluation,
	// selection-vector refinement, and measure-index generation.
	ScanNS int64
	// AggNS is time spent scanning measure columns and aggregating,
	// including result extraction.
	AggNS int64
	// PruneNS is time spent in segment admission deciding, from zone maps,
	// which segments can be skipped (excludes binding time).
	PruneNS int64
	// BindNS is time spent binding the plan's recipes to admitted
	// segments' column arrays (cached for sealed segments).
	BindNS int64
	// CacheNS is time spent consulting the per-segment aggregate cache
	// during segment admission (lookups only; installs are accounted to
	// the scan that computed the partial).
	CacheNS int64

	// Counters are the row and segment counters that add up across
	// executions.
	Counters
	// Groups is the number of result groups before LIMIT.
	Groups int
	// AggCacheHits is the number of sealed segments whose scan was skipped
	// because the plan's partial aggregate was served from the segment
	// aggregate cache.
	AggCacheHits int
	// AggCacheMisses is the number of sealed segments scanned live and
	// installed into the segment aggregate cache.
	AggCacheMisses int

	// UsedArrayAgg reports whether the multidimensional aggregation array
	// was used (as opposed to hash aggregation).
	UsedArrayAgg bool
	// PrefilterTables lists the tables for which predicate vectors were
	// built, in evaluation order.
	PrefilterTables []string
	// PlanHit reports whether the execution ran a plan it found in the
	// database's plan cache, compiled by an earlier request. The engine
	// never sets it; the db layer does.
	PlanHit bool
}

// Counters are the scan counters a database sums over its executions: one
// execution's row and segment work, and db.Stats's cumulative totals. Each
// is declared once, here — the json tag is its /v1/stats key, the metric
// and help tags its /metrics family (obs.Registry.RegisterFields).
type Counters struct {
	// SegmentsTotal is the number of root segments considered by the scan
	// (sealed ones plus the tail).
	SegmentsTotal int64 `json:"segments_total" metric:"astore_segments_considered_total,counter" help:"Root segments considered by segment admission."`
	// SegmentsPruned is the number of segments skipped entirely because a
	// zone map proved no row could match (empty segments count as pruned).
	SegmentsPruned int64 `json:"segments_pruned" metric:"astore_segments_pruned_total,counter" help:"Root segments skipped by zone-map pruning."`
	// RowsScanned is the number of root rows considered.
	RowsScanned int64 `json:"rows_scanned" metric:"astore_rows_scanned_total,counter" help:"Root rows considered across executions."`
	// RowsSelected is the number of root rows surviving all predicates.
	RowsSelected int64 `json:"rows_selected" metric:"astore_rows_selected_total,counter" help:"Root rows surviving all predicates across executions."`
	// EncodedSegments is the number of admitted segments containing at
	// least one compressed (RLE or FoR) chunk, i.e. segments the scan reads
	// at least partly in encoded form rather than as plain arrays only.
	EncodedSegments int64 `json:"encoded_segments" metric:"astore_encoded_segments_total,counter" help:"Admitted segments containing compressed (RLE/FoR) chunks."`
	// TailRows is the number of rows that can never be served from the
	// aggregate cache: rows of the unsealed tail segment.
	// In a warm steady state, scanned rows == tail rows.
	TailRows int64 `json:"tail_rows" metric:"astore_tail_rows_total,counter" help:"Rows scanned live from mutable tails (work the aggregate cache cannot absorb)."`
	// PruneByFilter attributes zone-map prunes to the filter that proved
	// them, keyed by the filter's display label (the predicate text for
	// root filters, "probe <table> via <fk>" for dimension probes). Empty
	// segments, which every filter would prune, are not attributed.
	PruneByFilter map[string]int64 `json:"prune_by_filter,omitempty"`
}

// Add accumulates o into c. Counters of disjoint segment subsets add up to
// exactly the counters of a scan over their union.
func (c *Counters) Add(o *Counters) {
	c.SegmentsTotal += o.SegmentsTotal
	c.SegmentsPruned += o.SegmentsPruned
	c.RowsScanned += o.RowsScanned
	c.RowsSelected += o.RowsSelected
	c.EncodedSegments += o.EncodedSegments
	c.TailRows += o.TailRows
	if len(o.PruneByFilter) > 0 && c.PruneByFilter == nil {
		c.PruneByFilter = make(map[string]int64, len(o.PruneByFilter))
	}
	for k, v := range o.PruneByFilter {
		c.PruneByFilter[k] += v
	}
}

// Add accumulates o's time, row, segment and cache counters into s: one
// worker's share into a run, one shard's run into a distributed query.
// Times add as work, not wall time. The per-plan facts (Groups,
// UsedArrayAgg, PrefilterTables, PlanHit) are not counters and stay s's.
func (s *Stats) Add(o *Stats) {
	s.LeafNS += o.LeafNS
	s.ScanNS += o.ScanNS
	s.AggNS += o.AggNS
	s.PruneNS += o.PruneNS
	s.BindNS += o.BindNS
	s.CacheNS += o.CacheNS
	s.AggCacheHits += o.AggCacheHits
	s.AggCacheMisses += o.AggCacheMisses
	s.Counters.Add(&o.Counters)
}
