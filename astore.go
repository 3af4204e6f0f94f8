// Package astore is a main-memory OLAP database for star and snowflake
// schemas built on virtual denormalization via array index reference (AIR),
// reproducing "Virtual Denormalization via Array Index Reference for Main
// Memory OLAP" (Zhang et al.).
//
// Tables are array families: sets of equally long, aligned arrays, one per
// column, in which the array index is the primary key. A foreign key column
// therefore stores array indexes of the referenced table, so joins reduce
// to positional lookups and the entire schema behaves as one virtually
// denormalized "universal table" — without the memory blow-up of physical
// denormalization. Every selection-projection-join-grouping-aggregation
// (SPJGA) query runs through one generic three-phase plan (scan-and-filter,
// grouping, aggregation) accelerated by vector-based column-wise scans,
// cache-resident predicate vectors, and a multidimensional aggregation
// array addressed through a per-tuple measure index.
//
// # Quick start
//
// The entry point is OpenDB: it registers every fact table of a catalog
// and serves queries with snapshot isolation, plan caching, and context
// cancellation. ExampleOpenDB builds a three-table star schema, prepares a
// SQL statement over it and runs the builder form of the same query; go
// test checks its printed output, and that of the examples named below.
//
// Re-executing a prepared statement skips planning while the tables are
// unmodified (the compiled plan is cached and invalidated by table version
// counters), and every execution pins a copy-on-write snapshot, so writers
// may insert, update, and delete concurrently through the Table API
// (ExampleConsolidate). ExampleNewLoader imports CSV with natural keys,
// Example_snowflake shows predicate folding down a four-hop chain, and
// Example_nested runs a nested query as single-rooted pieces.
//
// The builder API (NewQuery, predicates, aggregates) constructs the same
// queries programmatically; DB.Prepare routes them to the right fact table
// by column resolution (DB.Run prepares and executes in one call).
//
// The subpackages under internal implement the storage model, the serving
// layer, the scan variants of the paper's Table 6, the baseline engines
// used by the benchmark harness, and the SSB/TPC-H/TPC-DS data generators;
// this package re-exports the stable API.
package astore

import (
	"astore/internal/baseline"
	"astore/internal/core"
	"astore/internal/db"
	"astore/internal/expr"
	"astore/internal/load"
	"astore/internal/query"
	"astore/internal/server"
	"astore/internal/sql"
	"astore/internal/storage"
)

// Storage model.
type (
	// Table is an array family: aligned columns whose array index is the
	// primary key.
	Table = storage.Table
	// Database is a catalog of tables, needed by operations that must see
	// all referrers of a table (consolidation, AIR validation).
	Database = storage.Database
	// Column is one array of an array family.
	Column = storage.Column
	// Int32Col is a 32-bit integer column (foreign keys, codes).
	Int32Col = storage.Int32Col
	// Int64Col is a 64-bit integer column (measures).
	Int64Col = storage.Int64Col
	// Float64Col is a floating point column.
	Float64Col = storage.Float64Col
	// StrCol is an out-of-line variable-length string column.
	StrCol = storage.StrCol
	// DictCol is a dictionary-compressed string column; the code is an
	// array index reference into the dictionary.
	DictCol = storage.DictCol
	// Dict is an insertion-ordered string dictionary.
	Dict = storage.Dict
	// Bitmap is a packed bit vector (predicate and deletion vectors).
	Bitmap = storage.Bitmap
	// Snapshot is a stable read view of a table: its sealed segments,
	// shared as they are (a write to a sealed row gives the live table a
	// copy), and a pinned copy of its tail, isolated from writers by
	// chunk-granularity copy-on-write.
	Snapshot = storage.Snapshot
	// Segment is one immutable sealed chunk (or the mutable tail) of a
	// table, carrying per-segment columns, a deletion bitmap, and zone
	// maps. A table seals segments once it has a threshold: set one with
	// Table.SetSegmentTarget or open the DB with Options.SegmentRows.
	Segment = storage.Segment
	// SegView is a stable per-segment read view (see Table.SegViews); its
	// ID names a sealed segment's contents.
	SegView = storage.SegView
)

// DefaultSegmentRows is the default fact-table segment sealing threshold
// used by serving layers that segment without an explicit target.
const DefaultSegmentRows = storage.DefaultSegmentRows

// Query model.
type (
	// Query is a SPJGA query over the universal table.
	Query = query.Query
	// Result is an ordered query result.
	Result = query.Result
	// Row is one result group.
	Row = query.Row
	// Value is one group-key value.
	Value = query.Value
	// OrderKey is one ORDER BY component.
	OrderKey = query.OrderKey
	// Pred is a selection predicate on one universal-table column.
	Pred = expr.Pred
	// Aggregate is one aggregation of a query.
	Aggregate = expr.Aggregate
	// NumExpr is a numeric measure expression.
	NumExpr = expr.NumExpr
)

// Database serving layer.
type (
	// DB serves SPJGA queries over every fact table of a catalog with
	// routing, plan caching, snapshot-isolated execution, and context
	// cancellation. Open one with OpenDB.
	DB = db.DB
	// Prepared is a routed, compiled query ready for repeated execution;
	// re-execution skips planning while the tables are unmodified.
	Prepared = db.Prepared
	// DBStats are cumulative serving counters of a DB (plan-cache hits,
	// misses, staleness recompiles, executions).
	DBStats = db.Stats
)

// HTTP serving layer.
type (
	// Server exposes a DB over HTTP: /v1/query with admission control and
	// streaming results, /v1/tables/{table}/append live ingest, /healthz,
	// /v1/stats. Create one with NewServer.
	Server = server.Server
	// ServerConfig tunes a Server (admission bounds, deadlines, limits).
	ServerConfig = server.Config
	// ServerStats is the /v1/stats response shape.
	ServerStats = server.Stats
)

// NewServer builds an HTTP server over the database handle. Mount
// Server.Handler, or call Server.ListenAndServe and stop it with
// Server.Shutdown, which drains in-flight queries.
func NewServer(d *DB, cfg ServerConfig) *Server { return server.New(d, cfg) }

// Engine.
type (
	// Engine executes SPJGA queries over the star/snowflake schema of one
	// fact table; DB.Engine returns the one a DB runs for that table.
	Engine = core.Engine
	// Options configure an Engine (and, through OpenDB, every engine of a
	// DB).
	Options = core.Options
	// Stats reports per-phase timing and optimizer decisions of one run.
	Stats = core.Stats
	// Variant selects a query-processor variant (paper Table 6).
	Variant = core.Variant
)

// Engine variants (Table 6 of the paper).
const (
	// VariantAuto lets the optimizer choose (the full A-Store).
	VariantAuto = core.Auto
	// VariantRowWise is AIRScan_R.
	VariantRowWise = core.RowWise
	// VariantRowWisePF is AIRScan_R_P.
	VariantRowWisePF = core.RowWisePF
	// VariantColWise is AIRScan_C.
	VariantColWise = core.ColWise
	// VariantColWisePF is AIRScan_C_P.
	VariantColWisePF = core.ColWisePF
	// VariantColWisePFG is AIRScan_C_P_G.
	VariantColWisePFG = core.ColWisePFG
)

// NewTable returns an empty table.
func NewTable(name string) *Table { return storage.NewTable(name) }

// NewDatabase returns an empty catalog.
func NewDatabase() *Database { return storage.NewDatabase() }

// NewInt32Col returns an Int32 column backed by v.
func NewInt32Col(v []int32) *Int32Col { return storage.NewInt32Col(v) }

// NewInt64Col returns an Int64 column backed by v.
func NewInt64Col(v []int64) *Int64Col { return storage.NewInt64Col(v) }

// NewFloat64Col returns a Float64 column backed by v.
func NewFloat64Col(v []float64) *Float64Col { return storage.NewFloat64Col(v) }

// NewStrCol returns a string column backed by v.
func NewStrCol(v []string) *StrCol { return storage.NewStrCol(v) }

// NewDict returns an empty dictionary.
func NewDict() *Dict { return storage.NewDict() }

// NewDictCol returns an empty dictionary-compressed column over dict.
func NewDictCol(dict *Dict) *DictCol { return storage.NewDictCol(dict) }

// NewDictColFrom dictionary-compresses vals into a fresh dictionary.
func NewDictColFrom(vals []string) *DictCol { return storage.NewDictColFrom(vals) }

// Consolidate physically removes deleted tuples from t and rewrites all
// array index references to it (§4.4; run when the system is idle).
func Consolidate(db *Database, t *Table) ([]int32, error) { return storage.Consolidate(db, t) }

// LoadDatabase reads a binary database image written by Database.Save,
// rebuilding tables, shared dictionaries, deletion vectors, and foreign-key
// edges.
var LoadDatabase = storage.LoadDatabase

// CSV import: natural primary keys are dropped (the array index replaces
// them) and natural foreign keys are rewritten to array index references.
type (
	// Loader imports CSV tables, maintaining the natural-key registries
	// used to rewrite foreign keys into array indexes.
	Loader = load.Loader
	// ColumnSpec describes one CSV column for the Loader.
	ColumnSpec = load.ColumnSpec
	// ColKind classifies how a CSV column is stored.
	ColKind = load.Kind
)

// CSV column kinds for ColumnSpec.
const (
	ColInt32   = load.Int32
	ColInt64   = load.Int64
	ColFloat64 = load.Float64
	ColString  = load.String
	ColDict    = load.Dict
	ColKey     = load.Key
	ColFK      = load.FK
	ColSkip    = load.Skip
)

// NewLoader returns a CSV loader registering tables into db.
func NewLoader(db *Database) *Loader { return load.NewLoader(db) }

// OpenDB builds a database handle over the catalog: every fact table (a
// table referenced by no other table) is registered with an engine over
// the star/snowflake schema reachable from it. Queries are routed to the
// right fact table, compiled plans are cached across executions, and every
// execution runs against a pinned copy-on-write snapshot so writers can
// mutate tables concurrently. The schema must not change after OpenDB;
// table contents may.
func OpenDB(catalog *Database, opt Options) (*DB, error) { return db.Open(catalog, opt) }

// Denormalize physically materializes the universal table (the baseline the
// paper calls real denormalization); any engine can then run the same
// queries against the returned single wide table.
func Denormalize(root *Table) (*Table, error) { return baseline.Denormalize(root) }

// NewQuery returns a named query under construction; chain Where,
// GroupByCols, Agg, OrderAsc/OrderDesc, and WithLimit.
func NewQuery(name string) *Query { return query.New(name) }

// ParseQuery compiles a SPJGA SELECT statement into a query. Join
// conditions (column = column) are recognized and dropped, exactly the
// universal-table rewriting of §3 of the paper: the joins live in the
// storage model, not in the query.
func ParseQuery(sqlText string) (*Query, error) { return sql.Parse(sqlText) }

// Predicates.
var (
	// IntEq is the predicate col = v.
	IntEq = expr.IntEq
	// IntNe is the predicate col <> v.
	IntNe = expr.IntNe
	// IntLt is the predicate col < v.
	IntLt = expr.IntLt
	// IntLe is the predicate col <= v.
	IntLe = expr.IntLe
	// IntGt is the predicate col > v.
	IntGt = expr.IntGt
	// IntGe is the predicate col >= v.
	IntGe = expr.IntGe
	// IntBetween is the predicate lo <= col <= hi.
	IntBetween = expr.IntBetween
	// IntIn is the predicate col IN (vs...).
	IntIn = expr.IntIn
	// FloatLt is the predicate col < v over floats.
	FloatLt = expr.FloatLt
	// FloatGe is the predicate col >= v over floats.
	FloatGe = expr.FloatGe
	// FloatBetween is the predicate lo <= col <= hi over floats.
	FloatBetween = expr.FloatBetween
	// StrEq is the predicate col = s.
	StrEq = expr.StrEq
	// StrNe is the predicate col <> s.
	StrNe = expr.StrNe
	// StrBetween is the predicate lo <= col <= hi (lexicographic).
	StrBetween = expr.StrBetween
	// StrIn is the predicate col IN (ss...).
	StrIn = expr.StrIn
)

// Measure expressions and aggregates.
var (
	// C references a column in a measure expression.
	C = expr.C
	// K is a numeric literal.
	K = expr.K
	// Add is l + r.
	Add = expr.Add
	// Subtract is l - r.
	Subtract = expr.Subtract
	// Mul is l * r.
	Mul = expr.Mul
	// Div is l / r.
	Div = expr.Div
	// SumOf is SUM(e) AS name.
	SumOf = expr.SumOf
	// CountStar is COUNT(*) AS name.
	CountStar = expr.CountStar
	// MinOf is MIN(e) AS name.
	MinOf = expr.MinOf
	// MaxOf is MAX(e) AS name.
	MaxOf = expr.MaxOf
	// AvgOf is AVG(e) AS name.
	AvgOf = expr.AvgOf
)
