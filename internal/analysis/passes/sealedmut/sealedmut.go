// Package sealedmut checks the sealed-segment immutability invariant:
// once a segment is sealed, its column chunks (the V / Codes backing
// slices of the plain *Col types, and the payload of the two encoded chunk
// types: RLECol's End run ends and Vals run-value column, FoRCol's Words)
// are shared by every open snapshot, so they must never be written in
// place — mutation goes through copy-on-write (CloneChunk) followed by an
// epoch bump.
//
// The analyzer flags any statement that writes into a chunk's backing
// slice:
//
//	c.V[i] = x            // element write
//	c.V = append(c.V, x)  // slice reassignment / regrow
//	copy(c.Codes, src)    // bulk overwrite
//	c.Vals = other        // swapping an RLE chunk's run values
//
// unless the enclosing function carries the construction-site directive
//
//	//astore:chunkwrite
//
// in its doc comment AND the package is the storage package itself. The
// directive marks the audited allowlist: chunk builders, the tail
// (unsealed) mutators, and consolidation's remap step, which rewrites
// chunks only while it can prove no snapshot pins them. Outside
// internal/storage the directive is ignored — other packages must treat
// chunks as read-only, full stop.
package sealedmut

import (
	"go/ast"
	"go/types"
	"strings"

	"astore/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "sealedmut",
	Doc:  "sealed segment chunks (Col.V / DictCol.Codes, RLECol.End / RLECol.Vals and FoRCol.Words) must not be written in place outside //astore:chunkwrite sites in internal/storage",
	Run:  run,
}

const directive = "//astore:chunkwrite"

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			if hasDirective(fd) && pass.Pkg.Name() == "storage" {
				continue // audited construction/consolidation site
			}
			checkBody(pass, fd)
		}
	}
	return nil, nil
}

func hasDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel := chunkSelector(pass.TypesInfo, baseOfIndex(lhs)); sel != nil {
					if _, isIndex := lhs.(*ast.IndexExpr); isIndex {
						pass.Reportf(n.Pos(), "write into sealed chunk slice %s; use CloneChunk and swap", render(sel))
					} else {
						pass.Reportf(n.Pos(), "reassignment of chunk slice %s outside a //astore:chunkwrite site", render(sel))
					}
				}
			}
		case *ast.IncDecStmt:
			if sel := chunkSelector(pass.TypesInfo, baseOfIndex(n.X)); sel != nil {
				pass.Reportf(n.Pos(), "write into sealed chunk slice %s; use CloneChunk and swap", render(sel))
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "copy" && len(n.Args) == 2 {
				if sel := chunkSelector(pass.TypesInfo, n.Args[0]); sel != nil {
					pass.Reportf(n.Pos(), "copy into sealed chunk slice %s outside a //astore:chunkwrite site", render(sel))
				}
			}
		}
		return true
	})
}

// baseOfIndex unwraps c.V[i] (and c.V[i:j]) to c.V; a plain selector
// passes through unchanged.
func baseOfIndex(e ast.Expr) ast.Expr {
	switch e := e.(type) {
	case *ast.IndexExpr:
		return e.X
	case *ast.SliceExpr:
		return e.X
	}
	return e
}

// chunkSelector reports whether e is a selector for a chunk payload field
// of a named struct type whose name ends in "Col": a slice field V or
// Codes (plain chunks), End or Words (RLE run ends, FoR packed words), or
// RLECol's Vals column of run values, whatever its type.
func chunkSelector(info *types.Info, e ast.Expr) *ast.SelectorExpr {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch sel.Sel.Name {
	case "V", "Codes", "End", "Words", "Vals":
	default:
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil
	}
	if _, isSlice := selection.Obj().Type().Underlying().(*types.Slice); !isSlice && sel.Sel.Name != "Vals" {
		return nil
	}
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || !strings.HasSuffix(named.Obj().Name(), "Col") {
		return nil
	}
	return sel
}

// render prints the selector compactly for diagnostics (base.Field).
func render(sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return "(...)." + sel.Sel.Name
}
