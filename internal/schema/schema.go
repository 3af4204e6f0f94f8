// Package schema models the join structure of a star/snowflake schema as a
// directed graph over array-family tables.
//
// Vertexes are tables and edges are array index references (foreign-key to
// primary-key relationships). A vertex without incoming edges is a root; for
// OLAP queries on star/snowflake schemas there is one root, the fact table,
// and the remaining tables are leaves (dimensions). Every leaf is reachable
// from the root through a chain of AIR edges — its reference path — and
// scanning the virtual universal table means scanning the root while
// following reference paths with positional lookups.
package schema

import (
	"errors"
	"fmt"
	"strings"

	"astore/internal/storage"
)

// Step is one edge of a reference path: following foreign-key column FKCol
// of table From leads to table To.
type Step struct {
	From  *storage.Table
	FKCol string
	To    *storage.Table
}

// Binding is the resolution of a column name against the universal table: it
// identifies the owning table, the column, and the reference path from the
// root to the owning table (empty when the column lives on the root itself).
type Binding struct {
	Name  string
	Table *storage.Table
	Col   storage.Column
	// Path leads from the root to Table; Path[i].To == Path[i+1].From.
	Path []Step
}

// OnRoot reports whether the binding's column lives on the root table.
func (b *Binding) OnRoot() bool { return len(b.Path) == 0 }

// Graph is the join graph of the schema reachable from one root table.
type Graph struct {
	root   *storage.Table
	tables []*storage.Table
	paths  map[*storage.Table][]Step
	owner  map[string]*storage.Table
	ambig  map[string]bool
}

// ErrSegmentedDimension reports a referenced table that seals segments. An
// AIR hop indexes a dimension's column as one contiguous array, which a
// table with a sealing threshold does not have (storage.Table.Column is nil
// for it); only a root may seal segments.
var ErrSegmentedDimension = errors.New("schema: referenced table seals segments")

// Build constructs the join graph reachable from root by following
// foreign-key edges. It returns an error if the reachable graph is not a
// tree (a table reachable via two different reference paths, or a cycle),
// because the universal-table model requires a unique reference path per
// leaf, and ErrSegmentedDimension if a referenced table seals segments.
func Build(root *storage.Table) (*Graph, error) {
	g := &Graph{
		root:  root,
		paths: map[*storage.Table][]Step{root: nil},
		owner: make(map[string]*storage.Table),
		ambig: make(map[string]bool),
	}
	// Depth-first walk with deterministic order (column declaration order).
	var visit func(t *storage.Table, path []Step) error
	visit = func(t *storage.Table, path []Step) error {
		g.tables = append(g.tables, t)
		for _, col := range t.ColumnNames() {
			if prev, dup := g.owner[col]; dup {
				// Same name on two tables: mark ambiguous; unqualified
				// resolution of this name will fail.
				if prev != t {
					g.ambig[col] = true
				}
			} else {
				g.owner[col] = t
			}
		}
		for _, fkCol := range t.ColumnNames() {
			ref := t.FK(fkCol)
			if ref == nil {
				continue
			}
			if ref.SegmentTarget() > 0 { // sealed segments imply a threshold
				return fmt.Errorf("%w: %s (referenced by %s.%s)", ErrSegmentedDimension, ref.Name, t.Name, fkCol)
			}
			step := Step{From: t, FKCol: fkCol, To: ref}
			if _, seen := g.paths[ref]; seen {
				return fmt.Errorf("schema: table %s reachable via multiple paths (not a tree)", ref.Name)
			}
			p := append(append([]Step(nil), path...), step)
			g.paths[ref] = p
			if err := visit(ref, p); err != nil {
				return err
			}
		}
		return nil
	}
	if err := visit(root, nil); err != nil {
		return nil, err
	}
	return g, nil
}

// Root returns the root (fact) table.
func (g *Graph) Root() *storage.Table { return g.root }

// Tables returns all reachable tables, root first, in DFS order.
func (g *Graph) Tables() []*storage.Table { return g.tables }

// Leaves returns the reachable tables other than the root.
func (g *Graph) Leaves() []*storage.Table {
	out := make([]*storage.Table, 0, len(g.tables)-1)
	for _, t := range g.tables {
		if t != g.root {
			out = append(out, t)
		}
	}
	return out
}

// PathTo returns the reference path from the root to t, or nil for the root
// itself. ok is false if t is unreachable.
func (g *Graph) PathTo(t *storage.Table) (path []Step, ok bool) {
	path, ok = g.paths[t]
	return path, ok
}

// Depth returns the number of AIR hops from the root to t (-1 if
// unreachable).
func (g *Graph) Depth(t *storage.Table) int {
	p, ok := g.paths[t]
	if !ok {
		return -1
	}
	return len(p)
}

// Resolve binds a column name against the universal table. The name may be
// unqualified ("c_nation") if it is unique among reachable tables, or
// qualified ("customer.c_nation").
func (g *Graph) Resolve(name string) (*Binding, error) {
	var tbl *storage.Table
	colName := name
	if i := strings.IndexByte(name, '.'); i >= 0 {
		tblName, cn := name[:i], name[i+1:]
		for _, t := range g.tables {
			if t.Name == tblName {
				tbl = t
				break
			}
		}
		if tbl == nil {
			return nil, fmt.Errorf("schema: no table %q reachable from %s", tblName, g.root.Name)
		}
		colName = cn
	} else {
		if g.ambig[name] {
			return nil, fmt.Errorf("schema: column %q is ambiguous; qualify it as table.column", name)
		}
		tbl = g.owner[name]
		if tbl == nil {
			return nil, fmt.Errorf("schema: no column %q in schema rooted at %s", name, g.root.Name)
		}
	}
	col := tbl.Column(colName)
	if col == nil {
		// Segmented tables have no flat column; bind the typed prototype
		// (planners bind the per-segment chunks at execution time).
		col = tbl.ColumnProto(colName)
	}
	if col == nil {
		return nil, fmt.Errorf("schema: table %s has no column %q", tbl.Name, colName)
	}
	return &Binding{Name: colName, Table: tbl, Col: col, Path: g.paths[tbl]}, nil
}

// RowAccessor returns a function mapping a root row index to the bound
// table's row index by following the reference path positionally. For a
// root-table binding it is the identity.
//
// This is the elementary AIR operation: a chain of array lookups replaces a
// multi-way join.
func (b *Binding) RowAccessor() func(rootRow int32) int32 {
	if len(b.Path) == 0 {
		return func(r int32) int32 { return r }
	}
	// Capture the FK arrays along the path once.
	fks := make([][]int32, len(b.Path))
	for i, s := range b.Path {
		fks[i] = s.From.Column(s.FKCol).(*storage.Int32Col).V
	}
	if len(fks) == 1 {
		fk := fks[0]
		return func(r int32) int32 { return fk[r] }
	}
	return func(r int32) int32 {
		for _, fk := range fks {
			r = fk[r]
		}
		return r
	}
}
