// Package snapshotonly proves the verifier's snapshot discipline.
// Model state lives behind one atomic pointer (Verifier.snap); a
// correct reader loads it exactly once per operation and works off
// that immutable snapshot. Two loads in one function can observe two
// different model versions mid-operation (a torn read across a Swap),
// and writing through a loaded pointer mutates a snapshot that
// concurrent verifications are reading — both defeat the entire
// point of the copy-then-publish design.
//
// The checker keys on atomic pointer fields declared
// //alarmvet:snapshot, whatever their name:
//
//   - more than one x.snap.Load() of the same field in one function is
//     reported (pass the loaded snapshot instead);
//   - field writes through a variable assigned from snap.Load() are
//     reported (the withVersion idiom — copy the struct with s := *old,
//     mutate the copy, CompareAndSwap — stays silent because the copy
//     is a new value, not the published pointer).
package snapshotonly

import (
	"go/ast"
	"go/types"

	"alarmverify/internal/analysis"
)

// Analyzer is the snapshotonly checker.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotonly",
	Doc: "report double loads of the model snapshot pointer and " +
		"mutations through a loaded snapshot",
	Run: run,
}

func run(pass *analysis.Pass) error {
	analysis.FuncBodies(pass.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit) {
		if lit != nil {
			return // literals are analyzed as part of their decl body
		}
		if _, ok := analysis.FuncIgnoreReason(decl); ok {
			return
		}
		checkBody(pass, decl.Body)
	})
	return nil
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	// loads counts x.snap.Load() per rendered base; loadedObjs holds
	// variables bound directly to a loaded snapshot pointer.
	loads := make(map[string]int)
	loadedObjs := make(map[any]bool)

	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.CallExpr:
			if snap, ok := snapLoad(pass, t); ok {
				loads[snap]++
				if loads[snap] == 2 {
					pass.Reportf(t.Pos(), "second load of %s in one function can observe a different model version; load once and pass the snapshot", snap)
				}
			}
		case *ast.AssignStmt:
			for i, r := range t.Rhs {
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
					if _, ok := snapLoad(pass, call); ok && i < len(t.Lhs) {
						if id, ok := ast.Unparen(t.Lhs[i]).(*ast.Ident); ok {
							if obj := analysis.ObjectOf(pass.TypesInfo, id); obj != nil {
								loadedObjs[obj] = true
							}
						}
					}
				}
			}
			// Writes through a loaded pointer: s.field = v.
			for _, l := range t.Lhs {
				sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				id, ok := ast.Unparen(sel.X).(*ast.Ident)
				if !ok {
					continue
				}
				if obj := analysis.ObjectOf(pass.TypesInfo, id); obj != nil && loadedObjs[obj] {
					pass.Reportf(l.Pos(), "write to %s.%s mutates a published model snapshot; copy it (s := *%s), mutate the copy, and publish with Store/CompareAndSwap",
						id.Name, sel.Sel.Name, id.Name)
				}
			}
		}
		return true
	})
}

// snapLoad matches x.f.Load() on a field f declared //alarmvet:snapshot
// and returns the rendered x.f.
func snapLoad(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" {
		return "", false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	f, _ := pass.TypesInfo.Uses[inner.Sel].(*types.Var)
	return analysis.Render(inner), pass.Directives.IsSnapshot(f)
}
