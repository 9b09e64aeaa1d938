// Package batchlife proves the pooled-buffer ownership discipline on
// the hot path: a pooled *core.Batch or broker *Lease is released
// exactly once per control-flow path, is never touched after its
// release, and no batch-owned scratch slice outlives ReleaseBatch.
// The runtime poison modes (SetBatchCheck / SetLeaseCheck) catch these
// bugs only on exercised schedules; this checker catches them on every
// path at compile time, walking each body with the shared path walker
// (analysis.Walk): where paths meet, a handle released on either counts
// as released.
//
// A value becomes tracked when a call assigns it to a variable whose
// type is a pointer to a named type Batch or Lease (getBatch, Drain,
// PollLeased). Releases are calls to ReleaseBatch or poisonBatch with
// the variable as argument, or v.Release(). Aliases
// of batch-owned slices (x := b.Verified) are tainted by the batch's
// release. Bodies of the release machinery itself (ReleaseBatch,
// Release, poisonBatch, Released) are exempt: touching the value
// during release is their job.
package batchlife

import (
	"go/ast"
	"go/token"
	"go/types"

	"alarmverify/internal/analysis"
)

// Analyzer is the batchlife checker.
var Analyzer = &analysis.Analyzer{
	Name: "batchlife",
	Doc: "report pooled batches and broker leases released twice, " +
		"used after release, leaked on a path, or whose scratch " +
		"slices escape the release",
	Run: run,
}

// trackedTypeNames are the pooled ownership handles.
var trackedTypeNames = map[string]bool{"Batch": true, "Lease": true}

// releaseFuncs release their argument; releaseMethods release their
// receiver.
var (
	releaseFuncs   = map[string]bool{"ReleaseBatch": true, "poisonBatch": true}
	releaseMethods = map[string]bool{"Release": true}
	exemptBodies   = map[string]bool{
		"ReleaseBatch": true, "poisonBatch": true, "Release": true, "Released": true,
	}
)

// vstate tracks one pooled variable (or a slice alias of one) along
// the current path.
type vstate struct {
	released bool
	relPos   token.Pos
	// aliasOf is the pooled base variable for slice aliases, nil for
	// the pooled handle itself.
	aliasOf *types.Var
}

type state map[*types.Var]*vstate

// Clone copies s for a path that forks off.
func (s state) Clone() state {
	out := make(state, len(s))
	for k, v := range s {
		c := *v
		out[k] = &c
	}
	return out
}

// Join unions another surviving path into s: released-anywhere wins (a
// use after a one-sided release is still a race with that path).
func (s state) Join(o state) state {
	for k, v := range o {
		if cur, ok := s[k]; ok {
			if v.released && !cur.released {
				cur.released, cur.relPos = true, v.relPos
			}
		} else {
			c := *v
			s[k] = &c
		}
	}
	return s
}

func run(pass *analysis.Pass) error {
	analysis.FuncBodies(pass.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit) {
		if exemptBodies[decl.Name.Name] {
			return // the release machinery, literals inside it included
		}
		if _, ok := analysis.FuncIgnoreReason(decl); ok && lit == nil {
			return
		}
		body := decl.Body
		if lit != nil {
			body = lit.Body
		}
		w := &walker{
			pass:     pass,
			releases: collectReleases(pass, body),
			deferred: collectDeferredReleases(pass, body),
		}
		analysis.Walk(w, body, make(state))
	})
	return nil
}

// collectReleases pre-scans a body for every variable that is released
// somewhere (path-insensitively); leak checks only fire for those, so
// ownership-transferring functions (Drain returns its batch) stay
// silent.
func collectReleases(pass *analysis.Pass, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if v := releaseTarget(pass, call); v != nil {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// collectDeferredReleases pre-scans for `defer ...Release...` calls:
// a deferred release covers every path, so the variable can neither
// leak nor trip use-after-release within the body.
func collectDeferredReleases(pass *analysis.Pass, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if d, ok := n.(*ast.DeferStmt); ok {
			if v := releaseTarget(pass, d.Call); v != nil {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// releaseTarget resolves a call to the pooled variable it releases,
// or nil.
func releaseTarget(pass *analysis.Pass, call *ast.CallExpr) *types.Var {
	recv, name := analysis.CallName(call)
	if releaseFuncs[name] && len(call.Args) > 0 {
		return identVar(pass, call.Args[0])
	}
	if releaseMethods[name] && recv != nil {
		if v := identVar(pass, recv); v != nil && trackedTypeNames[analysis.TypeName(v.Type())] {
			return v
		}
	}
	return nil
}

// identVar resolves an expression to the local variable it names.
func identVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := analysis.ObjectOf(pass.TypesInfo, id).(*types.Var)
	return v
}

// walker simulates one body.
type walker struct {
	pass     *analysis.Pass
	releases map[*types.Var]bool
	deferred map[*types.Var]bool
}

// Stmt applies a statement's ownership effects: tracking what it
// assigns, releases and uses, and the handles it hands on.
func (w *walker) Stmt(s ast.Stmt, st state) {
	switch t := s.(type) {
	case *ast.ExprStmt:
		w.exprs(t.X, st)
	case *ast.AssignStmt:
		for _, e := range t.Rhs {
			w.exprs(e, st)
		}
		w.assign(t, st)
	case *ast.DeclStmt:
		if gd, ok := t.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.exprs(v, st)
					}
					w.declSpec(vs, st)
				}
			}
		}
	case *ast.IncDecStmt:
		w.exprs(t.X, st)
	case *ast.SendStmt:
		w.exprs(t.Chan, st)
		w.exprs(t.Value, st)
		// Sending a pooled handle downstream transfers ownership: the
		// receiver releases it (serve's pipeline items).
		w.transfer(t.Value, st)
	case *ast.DeferStmt:
		if releaseTarget(w.pass, t.Call) != nil {
			return // covered by collectDeferredReleases
		}
		for _, a := range t.Call.Args {
			w.exprs(a, st)
		}
	case *ast.GoStmt:
		for _, a := range t.Call.Args {
			w.exprs(a, st)
		}
	case *ast.CommClause:
		if t.Comm != nil {
			w.Stmt(t.Comm, st)
		}
	}
}

// Expr checks the releases and uses of an expression a path evaluates.
func (w *walker) Expr(e ast.Expr, st state) { w.exprs(e, st) }

// assign applies tracking/alias/retire rules after RHS uses were
// checked.
func (w *walker) assign(t *ast.AssignStmt, st state) {
	if t.Tok != token.ASSIGN && t.Tok != token.DEFINE {
		return
	}
	// Tuple form: b, lease, err := call().
	if len(t.Lhs) > 1 && len(t.Rhs) == 1 {
		if _, isCall := ast.Unparen(t.Rhs[0]).(*ast.CallExpr); isCall {
			for _, l := range t.Lhs {
				if v := identVar(w.pass, l); v != nil {
					if trackedTypeNames[analysis.TypeName(v.Type())] {
						st[v] = &vstate{}
					} else {
						delete(st, v)
					}
				}
			}
			return
		}
	}
	for i, l := range t.Lhs {
		v := identVar(w.pass, l)
		if v == nil {
			continue
		}
		if i < len(t.Rhs) {
			rhs := ast.Unparen(t.Rhs[i])
			if _, isCall := rhs.(*ast.CallExpr); isCall && trackedTypeNames[analysis.TypeName(v.Type())] {
				st[v] = &vstate{}
				continue
			}
			// Slice alias of a pooled handle's field: x := b.Verified.
			if sel, ok := rhs.(*ast.SelectorExpr); ok {
				if base := identVar(w.pass, sel.X); base != nil && trackedTypeNames[analysis.TypeName(base.Type())] {
					if _, isSlice := w.pass.TypesInfo.TypeOf(rhs).(*types.Slice); isSlice {
						st[v] = &vstate{aliasOf: base}
						continue
					}
				}
			}
		}
		delete(st, v) // reassigned away: no longer ours
	}
}

// declSpec applies the same tracking to `var x = call()` forms.
func (w *walker) declSpec(vs *ast.ValueSpec, st state) {
	for i, name := range vs.Names {
		v, _ := analysis.ObjectOf(w.pass.TypesInfo, name).(*types.Var)
		if len(vs.Values) == 1 {
			i = 0 // var b, err = call()
		}
		if v != nil && trackedTypeNames[analysis.TypeName(v.Type())] && i < len(vs.Values) {
			if _, isCall := ast.Unparen(vs.Values[i]).(*ast.CallExpr); isCall {
				st[v] = &vstate{}
			}
		}
	}
}

// transfer untracks pooled handles referenced by an escaping
// expression (a channel send's value, a stored composite literal):
// ownership moved, the releasing party is elsewhere.
func (w *walker) transfer(n ast.Node, st state) {
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok {
			if v, ok := analysis.ObjectOf(w.pass.TypesInfo, id).(*types.Var); ok {
				if vs, tracked := st[v]; tracked && !vs.released {
					delete(st, v)
				}
			}
		}
		return true
	})
}

// exprs scans one expression tree: release calls first (double
// release), then plain uses of released values.
func (w *walker) exprs(n ast.Node, st state) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch t := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CompositeLit:
			// A handle stored into a literal escapes this function's
			// ownership; uses of already-released handles still count.
			w.escape(t, st)
			return false
		case *ast.CallExpr:
			if v := releaseTarget(w.pass, t); v != nil {
				vs, tracked := st[v]
				if tracked && vs.released {
					w.pass.Reportf(t.Pos(), "pooled %s released twice on this path (first released at %s)",
						v.Name(), w.pass.Fset.Position(vs.relPos))
				} else if tracked {
					vs.released, vs.relPos = true, t.Pos()
					// The batch's slice aliases die with it.
					for _, other := range st {
						if other.aliasOf == v && !other.released {
							other.released, other.relPos = true, t.Pos()
						}
					}
				}
				// Other args (scratch slices, etc.) still get checked.
				for i, a := range t.Args {
					if i == 0 && len(t.Args) > 0 && identVar(w.pass, a) == v {
						continue
					}
					w.exprs(a, st)
				}
				return false
			}
		case *ast.Ident:
			v, _ := analysis.ObjectOf(w.pass.TypesInfo, t).(*types.Var)
			if v == nil {
				return true
			}
			vs, ok := st[v]
			if !ok || !vs.released || w.deferred[v] {
				return true
			}
			w.useAfterRelease(t, v, vs)
			delete(st, v) // one report per variable per path
		}
		return true
	})
}

// escape reports released-handle uses inside an escaping expression,
// then untracks the live ones (ownership moved with the value).
func (w *walker) escape(n ast.Node, st state) {
	ast.Inspect(n, func(c ast.Node) bool {
		id, ok := c.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := analysis.ObjectOf(w.pass.TypesInfo, id).(*types.Var)
		if !ok {
			return true
		}
		vs, tracked := st[v]
		if !tracked {
			return true
		}
		if vs.released {
			w.useAfterRelease(id, v, vs)
		}
		delete(st, v)
		return true
	})
}

// useAfterRelease reports id, a use of v after its release on this
// path.
func (w *walker) useAfterRelease(id *ast.Ident, v *types.Var, vs *vstate) {
	if vs.aliasOf != nil {
		w.pass.Reportf(id.Pos(), "use of %s, a scratch slice of pooled %s, after the batch was released at %s",
			v.Name(), vs.aliasOf.Name(), w.pass.Fset.Position(vs.relPos))
	} else {
		w.pass.Reportf(id.Pos(), "use of pooled %s after its release at %s",
			v.Name(), w.pass.Fset.Position(vs.relPos))
	}
}

// Return reports pooled handles that this function releases on some
// path but neither releases, defers, nor returns on this one.
func (w *walker) Return(st state, at token.Pos, results []ast.Expr) {
	returned := make(map[*types.Var]bool)
	for _, r := range results {
		ast.Inspect(r, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := analysis.ObjectOf(w.pass.TypesInfo, id).(*types.Var); ok {
					returned[v] = true
				}
			}
			return true
		})
	}
	for v, vs := range st {
		if vs.aliasOf != nil || vs.released || w.deferred[v] || returned[v] {
			continue
		}
		if !w.releases[v] {
			continue // never released here: ownership moves elsewhere
		}
		w.pass.Reportf(at, "pooled %s is released on another path but not on this one (leaked back to the pool)", v.Name())
	}
}
