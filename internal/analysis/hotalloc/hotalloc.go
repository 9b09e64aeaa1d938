// Package hotalloc proves the zero-allocation contract on annotated
// hot paths. A function marked //alarmvet:hotpath (the PR-6
// decode/classify/persist pipeline and the WAL frame encoder) must
// not allocate per call: the steady-state cost model in
// PERFORMANCE.md assumes the only allocations are pool misses.
//
// Flagged constructs inside a hotpath body:
//
//   - fmt.* calls (Sprintf and friends allocate and box);
//   - make, new, and composite literals (including &T{...});
//   - append into a different variable than its source
//     (x = append(y, ...) allocates a fresh backing array; the pooled
//     idiom x = append(x, ...) amortizes into scratch and is allowed);
//   - string concatenation with +.
//
// A genuinely cold line inside a hotpath function (a fallback, an
// error path) is excused with //alarmvet:ignore <reason> — audited,
// reason mandatory. Function literals declared inside a hotpath body
// inherit the contract (they run on the same path).
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"alarmverify/internal/analysis"
)

// Analyzer is the hotalloc checker.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "report allocations inside //alarmvet:hotpath functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil || !analysis.IsHotpath(decl) {
				continue
			}
			checkBody(pass, decl.Body)
		}
	}
	return nil
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, t)
		case *ast.UnaryExpr:
			if t.Op == token.AND {
				if _, ok := ast.Unparen(t.X).(*ast.CompositeLit); ok {
					pass.Reportf(t.Pos(), "&literal heap-allocates in a hotpath function; reuse pooled scratch")
					return false
				}
			}
		case *ast.CompositeLit:
			// Struct-valued literals are stack copies; only map and
			// slice literals force an allocation.
			lt := pass.TypesInfo.TypeOf(t)
			if lt == nil {
				return true
			}
			switch lt.Underlying().(type) {
			case *types.Map, *types.Slice:
				pass.Reportf(t.Pos(), "%s literal allocates in a hotpath function; reuse pooled scratch",
					kindOf(pass, t))
				return false // don't double-report nested literals
			}
		case *ast.AssignStmt:
			checkAppend(pass, t)
		case *ast.BinaryExpr:
			// Constant concatenation folds at compile time; only
			// runtime concatenation allocates.
			if t.Op == token.ADD && isString(pass, t.X) && !isConst(pass, t) {
				pass.Reportf(t.Pos(), "string concatenation allocates in a hotpath function; use an append-based encoder")
				return false // one report per concatenation chain
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if name := analysis.BuiltinName(pass.TypesInfo, call); name == "make" || name == "new" {
			pass.Reportf(call.Pos(), "%s allocates in a hotpath function; hoist it to setup or a pool", name)
		}
	case *ast.SelectorExpr:
		if obj, ok := pass.TypesInfo.Uses[fn.Sel].(*types.Func); ok &&
			obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s allocates and boxes its arguments in a hotpath function", fn.Sel.Name)
		}
	}
}

// checkAppend flags x = append(y, ...) where x and y differ: growth
// lands in a fresh backing array every call instead of amortizing
// into pooled scratch.
func checkAppend(pass *analysis.Pass, t *ast.AssignStmt) {
	for i, r := range t.Rhs {
		call, ok := ast.Unparen(r).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		if analysis.BuiltinName(pass.TypesInfo, call) != "append" || i >= len(t.Lhs) {
			continue
		}
		if _, isReslice := ast.Unparen(call.Args[0]).(*ast.SliceExpr); isReslice {
			continue // append(buf[:0], ...) amortizes into existing capacity
		}
		dst := analysis.Render(t.Lhs[i])
		src := analysis.Render(call.Args[0])
		if dst != src {
			pass.Reportf(call.Pos(), "append into %s from %s allocates in a hotpath function; append a variable into itself (or slice pooled scratch)", dst, src)
		}
	}
}

func kindOf(pass *analysis.Pass, e ast.Expr) string {
	if t := pass.TypesInfo.TypeOf(e); t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			return "map"
		}
	}
	return "slice"
}

func isConst(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
