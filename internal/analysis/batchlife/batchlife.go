// Package batchlife proves the pooled-buffer ownership discipline on
// the hot path: a pooled *core.Batch or broker *Lease is released
// exactly once per control-flow path, is never touched after its
// release, and no batch-owned scratch slice outlives ReleaseBatch.
// The runtime poison modes (SetBatchCheck / SetLeaseCheck) catch these
// bugs only on exercised schedules; this checker catches them on every
// path at compile time.
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
	"maps"

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

func (s state) clone() state {
	out := make(state, len(s))
	for k, v := range s {
		c := *v
		out[k] = &c
	}
	return out
}

// mergeFrom unions another surviving path into s: released-anywhere
// wins (a use after a one-sided release is still a race with that
// path).
func (s state) mergeFrom(o state) {
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
}

func run(pass *analysis.Pass) error {
	analysis.FuncBodies(pass.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit) {
		if lit == nil && exemptBodies[decl.Name.Name] {
			return
		}
		if lit != nil && exemptBodies[decl.Name.Name] {
			return // literals inside the release machinery
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
		if !w.stmts(body.List, make(state)) {
			// Fall-off-the-end is a return path too.
			w.checkLeaks(w.last, body.Rbrace, nil)
		}
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
	// last remembers the state reaching the end of the walked
	// sequence, for the implicit-return leak check.
	last state
}

func (w *walker) stmts(list []ast.Stmt, st state) bool {
	w.last = st
	for _, s := range list {
		if w.stmt(s, st) {
			return true
		}
	}
	w.last = st
	return false
}

func (w *walker) stmt(s ast.Stmt, st state) bool {
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
			return false // covered by collectDeferredReleases
		}
		for _, a := range t.Call.Args {
			w.exprs(a, st)
		}
	case *ast.GoStmt:
		for _, a := range t.Call.Args {
			w.exprs(a, st)
		}
	case *ast.ReturnStmt:
		for _, e := range t.Results {
			w.exprs(e, st)
		}
		w.checkLeaks(st, t.Return, t.Results)
		return true
	case *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return w.stmts(t.List, st)
	case *ast.LabeledStmt:
		return w.stmt(t.Stmt, st)
	case *ast.IfStmt:
		if t.Init != nil {
			w.stmt(t.Init, st)
		}
		w.exprs(t.Cond, st)
		thenSt := st.clone()
		thenTerm := w.stmts(t.Body.List, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if t.Else != nil {
			elseTerm = w.stmt(t.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			replace(st, elseSt)
		case elseTerm:
			replace(st, thenSt)
		default:
			replace(st, thenSt)
			st.mergeFrom(elseSt)
		}
	case *ast.ForStmt:
		if t.Init != nil {
			w.stmt(t.Init, st)
		}
		if t.Cond != nil {
			w.exprs(t.Cond, st)
		}
		bodySt := st.clone()
		w.stmts(t.Body.List, bodySt)
		if t.Post != nil {
			w.stmt(t.Post, bodySt)
		}
		if t.Cond == nil && !analysis.HasBreak(t.Body) {
			return true // for{}: only leaves via return inside the body
		}
		st.mergeFrom(bodySt)
	case *ast.RangeStmt:
		w.exprs(t.X, st)
		bodySt := st.clone()
		w.stmts(t.Body.List, bodySt)
		st.mergeFrom(bodySt)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Clause-level precision is not needed for ownership: walk each
		// clause from the entry state and union the survivors.
		var body *ast.BlockStmt
		switch sw := t.(type) {
		case *ast.SwitchStmt:
			if sw.Init != nil {
				w.stmt(sw.Init, st)
			}
			if sw.Tag != nil {
				w.exprs(sw.Tag, st)
			}
			body = sw.Body
		case *ast.TypeSwitchStmt:
			if sw.Init != nil {
				w.stmt(sw.Init, st)
			}
			w.stmt(sw.Assign, st)
			body = sw.Body
		case *ast.SelectStmt:
			body = sw.Body
		}
		entry := st.clone()
		for _, c := range body.List {
			var list []ast.Stmt
			switch cc := c.(type) {
			case *ast.CaseClause:
				list = cc.Body
			case *ast.CommClause:
				if cc.Comm != nil {
					w.stmt(cc.Comm, entry)
				}
				list = cc.Body
			}
			ccSt := entry.clone()
			if !w.stmts(list, ccSt) {
				st.mergeFrom(ccSt)
			}
		}
	}
	w.last = st
	return false
}

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
		if v == nil || !trackedTypeNames[analysis.TypeName(v.Type())] {
			continue
		}
		if i < len(vs.Values) {
			if _, isCall := ast.Unparen(vs.Values[i]).(*ast.CallExpr); isCall {
				st[v] = &vstate{}
			}
		} else if len(vs.Values) == 1 {
			if _, isCall := ast.Unparen(vs.Values[0]).(*ast.CallExpr); isCall {
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
			if vs.aliasOf != nil {
				w.pass.Reportf(t.Pos(), "use of %s, a scratch slice of pooled %s, after the batch was released at %s",
					v.Name(), vs.aliasOf.Name(), w.pass.Fset.Position(vs.relPos))
			} else {
				w.pass.Reportf(t.Pos(), "use of pooled %s after its release at %s",
					v.Name(), w.pass.Fset.Position(vs.relPos))
			}
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
			if vs.aliasOf != nil {
				w.pass.Reportf(id.Pos(), "use of %s, a scratch slice of pooled %s, after the batch was released at %s",
					v.Name(), vs.aliasOf.Name(), w.pass.Fset.Position(vs.relPos))
			} else {
				w.pass.Reportf(id.Pos(), "use of pooled %s after its release at %s",
					v.Name(), w.pass.Fset.Position(vs.relPos))
			}
		}
		delete(st, v)
		return true
	})
}

// checkLeaks reports pooled handles that this function releases on
// some path but neither releases, defers, nor returns on this one.
func (w *walker) checkLeaks(st state, at token.Pos, results []ast.Expr) {
	if st == nil {
		return
	}
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

// replace overwrites dst's contents with src's.
func replace(dst, src state) {
	clear(dst)
	maps.Copy(dst, src)
}
