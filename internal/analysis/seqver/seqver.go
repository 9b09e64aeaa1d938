// Package seqver proves the docstore's write-section discipline: every
// mutation of a partition's core state (the id column, the field
// columns, the slabs their chunks are carved from, or secondary
// indexes) happens inside a write section —
// either the function itself opens one (p.mu.Lock() on the partition
// it mutates; a read lock does not count), or it follows the
// repository's "Locked" naming contract, documenting that its caller
// already has.
//
// The cached aggregation partials rest on it: a reader advances a
// partial under the read lock, trusting that rows below its mark only
// change through the Locked primitives that invalidate it. (The name
// is from when the section also bumped a seqlock version counter, which
// the partials no longer need.)
//
// A partition-like type is recognized structurally: any struct with
// both `ids` and `cols` fields. Row data lives inside the columns, so
// a call to one of a column's mutating methods (set, gather) on a
// column reached through the partition — p.cols[s], p.col(s),
// p.colLocked(s), or a local variable bound to one of those — counts as
// a mutation of p.cols. The id column is a lane, so a lane mutator
// (push, truncate) called on a guarded field — p.ids.push(id) — counts
// as a mutation of that field, and so does a carve from a slab inside
// one — p.slabs.strs.carve(n). Fresh values built inside the same
// function (constructors, recovery) are exempt — they are unpublished
// and have no readers yet.
package seqver

import (
	"go/ast"
	"go/token"
	"strings"

	"alarmverify/internal/analysis"
)

// Analyzer is the seqver checker.
var Analyzer = &analysis.Analyzer{
	Name: "seqver",
	Doc: "report partition-state mutations (ids/cols/indexes) outside " +
		"a write section or the Locked-suffix contract",
	Run: run,
}

// guardedFields are the partition fields whose mutation needs a write
// section.
var guardedFields = map[string]bool{
	"ids": true, "cols": true, "slabs": true, "index": true, "indexes": true,
}

// columnMutators are the column methods that write row data,
// laneMutators the lane and slab methods that do (a carve hands out
// memory no other chunk may use), and columnGetters the partition
// methods that hand out a column.
var (
	columnMutators = map[string]bool{"set": true, "gather": true}
	laneMutators   = map[string]bool{"push": true, "truncate": true, "carve": true, "carveList": true, "sizeTo": true}
	columnGetters  = map[string]bool{"col": true, "colLocked": true}
)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			if strings.HasSuffix(decl.Name.Name, "Locked") {
				continue // caller-holds-lock contract
			}
			if _, ok := analysis.FuncIgnoreReason(decl); ok {
				continue
			}
			checkBody(pass, decl.Body)
		}
	}
	return nil
}

// checkBody flags guarded-field mutations not preceded (in source
// order) by a mu.Lock() on the same base expression. Source order is a
// sound approximation here: the repo's Lock/mutate/Unlock sections are
// straight-line.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	fresh := localFreshVars(pass, body)
	sections := sectionStarts(pass, body)
	cols := columnVars(pass, body)

	report := func(base ast.Expr, field string, pos token.Pos) {
		baseKey := analysis.Render(base)
		for _, sec := range sections {
			if sec.base == baseKey && sec.pos < pos {
				return
			}
		}
		if id, ok := ast.Unparen(base).(*ast.Ident); ok {
			if obj := analysis.ObjectOf(pass.TypesInfo, id); obj != nil && fresh[obj.Pos()] {
				return // unpublished value built in this function
			}
		}
		pass.Reportf(pos, "mutation of %s.%s outside a write section (call %s.mu.Lock first, or use the Locked-suffix caller-holds contract)",
			baseKey, field, baseKey)
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			for _, l := range t.Lhs {
				if base, field, ok := guardedTarget(pass, l); ok {
					report(base, field, l.Pos())
				}
			}
		case *ast.IncDecStmt:
			if base, field, ok := guardedTarget(pass, t.X); ok {
				report(base, field, t.X.Pos())
			}
		case *ast.CallExpr:
			// delete(p.indexes, k) mutates too.
			if id, ok := ast.Unparen(t.Fun).(*ast.Ident); ok && id.Name == "delete" && len(t.Args) > 0 {
				if base, field, ok := guardedTarget(pass, t.Args[0]); ok {
					report(base, field, t.Args[0].Pos())
				}
			}
			// p.cols[s].set(...), p.colLocked(s).set(...), col.gather(...).
			recv, name := analysis.CallName(t)
			if recv != nil && columnMutators[name] {
				if base := columnOwner(pass, recv, cols); base != nil {
					report(base, "cols", t.Pos())
				}
			}
			// p.ids.push(id), p.ids.truncate(n), p.slabs.strs.carve(n).
			if recv != nil && laneMutators[name] {
				if base, field, ok := guardedTarget(pass, recv); ok {
					report(base, field, t.Pos())
				}
			}
		}
		return true
	})
}

// section is where a write section opens: a mu.Lock() call on some
// base expression.
type section struct {
	base string
	pos  token.Pos
}

// sectionStarts collects the body's base.mu.Lock() calls.
func sectionStarts(pass *analysis.Pass, body *ast.BlockStmt) []section {
	var out []section
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if recv, name := analysis.CallName(call); name == "Lock" && recv != nil {
				if mu, ok := ast.Unparen(recv).(*ast.SelectorExpr); ok && mu.Sel.Name == "mu" {
					out = append(out, section{base: analysis.Render(mu.X), pos: call.Pos()})
				}
			}
		}
		return true
	})
	return out
}

// guardedTarget decomposes an lvalue into (base, guardedField) when it
// denotes guarded partition state: base.ids, base.ids[i],
// base.cols[s], base.indexes[name], or a field inside one —
// base.slabs.strs — with base a partition-like struct.
func guardedTarget(pass *analysis.Pass, e ast.Expr) (ast.Expr, string, bool) {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	for {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return nil, "", false
		}
		if guardedFields[sel.Sel.Name] {
			if names := analysis.StructFieldNames(pass.TypesInfo.TypeOf(sel.X)); names["ids"] && names["cols"] {
				return sel.X, sel.Sel.Name, true
			}
		}
		e = ast.Unparen(sel.X)
	}
}

// columnOwner returns the partition-like expression a column
// expression was reached through — base.cols[s], base.col(s),
// base.colLocked(s), or a variable columnVars bound to one — or nil.
func columnOwner(pass *analysis.Pass, e ast.Expr, vars map[token.Pos]ast.Expr) ast.Expr {
	e = ast.Unparen(e)
	if base, field, ok := guardedTarget(pass, e); ok && field == "cols" {
		return base
	}
	switch t := e.(type) {
	case *ast.CallExpr:
		if recv, name := analysis.CallName(t); recv != nil && columnGetters[name] {
			if names := analysis.StructFieldNames(pass.TypesInfo.TypeOf(recv)); names["ids"] && names["cols"] {
				return recv
			}
		}
	case *ast.Ident:
		if obj := analysis.ObjectOf(pass.TypesInfo, t); obj != nil {
			return vars[obj.Pos()]
		}
	}
	return nil
}

// columnVars maps the def position of every local variable bound to a
// partition's column (col := p.cols[s], col := p.colLocked(s), or
// for _, col := range p.cols) to that partition expression.
func columnVars(pass *analysis.Pass, body *ast.BlockStmt) map[token.Pos]ast.Expr {
	out := make(map[token.Pos]ast.Expr)
	bind := func(lhs ast.Expr, base ast.Expr) {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && base != nil {
			if obj := analysis.ObjectOf(pass.TypesInfo, id); obj != nil {
				out[obj.Pos()] = base
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			for i := range t.Lhs {
				if i < len(t.Rhs) {
					bind(t.Lhs[i], columnOwner(pass, t.Rhs[i], out))
				}
			}
		case *ast.RangeStmt:
			if base, field, ok := guardedTarget(pass, t.X); ok && field == "cols" && t.Value != nil {
				bind(t.Value, base)
			}
		}
		return true
	})
	return out
}

// localFreshVars returns the def positions of variables initialized
// in this body from composite literals, new(), or make() — values not
// yet published to readers.
func localFreshVars(pass *analysis.Pass, body *ast.BlockStmt) map[token.Pos]bool {
	out := make(map[token.Pos]bool)
	mark := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := analysis.ObjectOf(pass.TypesInfo, id)
		if obj == nil {
			return
		}
		switch r := ast.Unparen(rhs).(type) {
		case *ast.CompositeLit:
			out[obj.Pos()] = true
		case *ast.UnaryExpr:
			if r.Op == token.AND {
				if _, ok := ast.Unparen(r.X).(*ast.CompositeLit); ok {
					out[obj.Pos()] = true
				}
			}
		case *ast.CallExpr:
			if fid, ok := ast.Unparen(r.Fun).(*ast.Ident); ok && (fid.Name == "new" || fid.Name == "make") {
				out[obj.Pos()] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			for i := range t.Lhs {
				if i < len(t.Rhs) {
					mark(t.Lhs[i], t.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i := range t.Names {
				if i < len(t.Values) {
					mark(t.Names[i], t.Values[i])
				}
			}
		}
		return true
	})
	return out
}
