package analysis

import (
	"go/ast"
	"go/types"
)

// Shared AST/type helpers for the checkers.

// CallName splits a call into its receiver expression (nil for plain
// function calls) and the callee's bare name ("" when the callee is
// not an identifier or selector, e.g. a call of a call result).
func CallName(call *ast.CallExpr) (recv ast.Expr, name string) {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return nil, fn.Name
	case *ast.SelectorExpr:
		return fn.X, fn.Sel.Name
	}
	return nil, ""
}

// IsPkgFunc reports whether call invokes the package-level function
// pkgPath.name (e.g. time.Sleep).
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	return fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

// IsMethodOn reports whether call invokes a method named name whose
// receiver's (pointer-stripped) named type is pkgPath.typeName.
func IsMethodOn(info *types.Info, call *ast.CallExpr, pkgPath, typeName, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	named := NamedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// NamedOf strips pointers and returns the expression type's named
// type, or nil.
func NamedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		case *types.Alias:
			t = types.Unalias(tt)
		default:
			return nil
		}
	}
}

// IsMutex reports whether t, pointers stripped, is sync.Mutex or
// sync.RWMutex.
func IsMutex(t types.Type) bool {
	n := NamedOf(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// TypeName returns the bare name of the expression type's named type
// after pointer stripping ("" for unnamed types).
func TypeName(t types.Type) string {
	if n := NamedOf(t); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// BuiltinName returns the name of the builtin a call invokes (append,
// make, ...), or "".
func BuiltinName(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			return id.Name
		}
	}
	return ""
}

// Render produces a canonical source string for an expression,
// suitable as a state key ("p.mu", "c.verifier.snap").
func Render(e ast.Expr) string { return types.ExprString(e) }

// ObjectOf resolves an identifier to its object (use or def).
func ObjectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// FuncBodies yields every function body in the files: each FuncDecl
// with its declaration, and each FuncLit with the nearest enclosing
// FuncDecl (nil at file scope). Analyzers that simulate control flow
// analyze each body independently.
func FuncBodies(files []*ast.File, fn func(decl *ast.FuncDecl, lit *ast.FuncLit)) {
	for _, f := range files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fn(decl, nil)
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					fn(decl, lit)
				}
				return true
			})
		}
	}
}
