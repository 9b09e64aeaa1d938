// Package lockscope proves the repository's lock-scope invariants: a
// partition/collection/consumer mutex must never be held across a
// blocking operation (sleeps, fsync, network/stream
// I/O, channel sends, selects), and every Lock/RLock must be paired
// with its unlock on every return path. These are the rules the docstore and broker
// hot paths rely on for tail latency: one shard sleeping under a
// partition lock stalls every reader of that partition.
//
// The checker simulates each function body with a branch-aware
// abstract interpreter over the held-lock set. Package-local lock
// wrappers (a method whose body is the Lock, or the Unlock) are
// classified by their bodies and treated as acquire/release at call
// sites; package-local functions whose bodies (transitively) sleep,
// fsync or send are classified as blocking. A function annotated
// //alarmvet:ignore <reason> is exempted from the blocking set — the
// audited escape hatch for cold-path admin locks held across an atomic
// file install on purpose (the docstore's replaceFileSync, the model
// registry). The docstore WAL needs none: its fsync runs with no mutex
// held, so every caller that waits for one is checked like any other.
package lockscope

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"alarmverify/internal/analysis"
)

// Analyzer is the lockscope checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockscope",
	Doc: "report mutexes held across blocking operations and " +
		"lock/unlock pairs broken on a return path",
	Run: run,
}

// lock modes.
const (
	modeW = 'w'
	modeR = 'r'
)

// held records one acquired lock: its mode, whether a deferred unlock
// covers it, and where it was acquired.
type held struct {
	render   string
	mode     byte
	deferred bool
	pos      token.Pos
}

// state is the held-lock set, keyed by rendered lock expression plus
// mode ("p.mu:w").
type state map[string]*held

func (s state) clone() state {
	out := make(state, len(s))
	for k, v := range s {
		c := *v
		out[k] = &c
	}
	return out
}

func (s state) merge(o state) {
	for k, v := range o {
		if _, ok := s[k]; !ok {
			c := *v
			s[k] = &c
		}
	}
}

// wrapper describes a package-local lock or unlock wrapper method:
// the receiver-relative field suffix it locks ("mu") and the mode.
type wrapper struct {
	suffix string
	mode   byte
}

// pkgIndex is the package-level classification shared by all bodies.
type pkgIndex struct {
	pass *analysis.Pass
	// lockWrappers / unlockWrappers map the method object to what it
	// acquires or releases.
	lockWrappers   map[*types.Func][]wrapper
	unlockWrappers map[*types.Func][]wrapper
	// blocking holds package functions that (transitively) block,
	// mapped to a human-readable cause.
	blocking map[*types.Func]string
}

func run(pass *analysis.Pass) error {
	idx := buildIndex(pass)
	analysis.FuncBodies(pass.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit) {
		obj, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func)
		if obj != nil {
			if _, ok := idx.lockWrappers[obj]; ok {
				return // a wrapper's job is to return holding the lock
			}
			if _, ok := idx.unlockWrappers[obj]; ok {
				return
			}
		}
		if _, ok := analysis.FuncIgnoreReason(decl); ok {
			return
		}
		body := decl.Body
		if lit != nil {
			body = lit.Body
		}
		w := &walker{idx: idx, pass: pass}
		st := make(state)
		if !w.stmts(body.List, st) {
			w.checkReturn(st, body.Rbrace)
		}
	})
	return nil
}

// buildIndex classifies the package's wrappers and blocking functions.
func buildIndex(pass *analysis.Pass) *pkgIndex {
	idx := &pkgIndex{
		pass:           pass,
		lockWrappers:   make(map[*types.Func][]wrapper),
		unlockWrappers: make(map[*types.Func][]wrapper),
		blocking:       make(map[*types.Func]string),
	}
	type declInfo struct {
		decl *ast.FuncDecl
		obj  *types.Func
	}
	var decls []declInfo
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func)
			if obj == nil {
				continue
			}
			decls = append(decls, declInfo{decl, obj})
		}
	}

	// Wrapper classification: direct lock ops on a receiver field,
	// with no release (lock wrapper) or no acquire (unlock wrapper).
	for _, di := range decls {
		recvName := receiverName(di.decl)
		if recvName == "" {
			continue
		}
		var acquires, releases []wrapper
		inspectSkippingFuncLits(di.decl.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			op := lockOp(pass.TypesInfo, call)
			if op == nil {
				return
			}
			r := analysis.Render(op.recv)
			if r != recvName && !strings.HasPrefix(r, recvName+".") {
				return
			}
			w := wrapper{suffix: strings.TrimPrefix(r, recvName), mode: op.mode}
			if op.acquire {
				acquires = append(acquires, w)
			} else {
				releases = append(releases, w)
			}
		})
		switch {
		case len(acquires) > 0 && len(releases) == 0:
			idx.lockWrappers[di.obj] = acquires
		case len(releases) > 0 && len(acquires) == 0:
			idx.unlockWrappers[di.obj] = releases
		}
	}

	// Blocking classification, to a package-local fixpoint. Functions
	// with an //alarmvet:ignore reason are exempt (audited: e.g. the
	// simulated-RTT sleep that models the remote store).
	direct := func(di declInfo) string {
		if _, ok := analysis.FuncIgnoreReason(di.decl); ok {
			return ""
		}
		return directBlockingCause(pass.TypesInfo, di.decl.Body)
	}
	for _, di := range decls {
		if cause := direct(di); cause != "" {
			idx.blocking[di.obj] = cause
		}
	}
	for changed := true; changed; {
		changed = false
		for _, di := range decls {
			if _, done := idx.blocking[di.obj]; done {
				continue
			}
			if _, ok := analysis.FuncIgnoreReason(di.decl); ok {
				continue
			}
			var cause string
			inspectSkippingFuncLits(di.decl.Body, func(n ast.Node) {
				if cause != "" {
					return
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				if callee := calleeFunc(pass.TypesInfo, call); callee != nil {
					if c, ok := idx.blocking[callee]; ok {
						cause = "calls " + callee.Name() + ", which " + c
					}
				}
			})
			if cause != "" {
				idx.blocking[di.obj] = cause
				changed = true
			}
		}
	}
	return idx
}

// netBlockingCause classifies direct network/stream I/O — the wire
// analogue of fsync: a conn write or read under a mutex stalls every
// owner of that lock for a peer's round-trip (or forever, against a
// stalled peer). Interface-typed stream I/O (io.Reader/io.Writer)
// counts too: the broker's frame codec reads and writes TCP conns
// through exactly those types.
func netBlockingCause(info *types.Info, call *ast.CallExpr) string {
	switch {
	case analysis.IsPkgFunc(info, call, "net", "Dial"),
		analysis.IsPkgFunc(info, call, "net", "DialTimeout"):
		return "dials the network (net.Dial)"
	case analysis.IsPkgFunc(info, call, "io", "ReadFull"):
		return "reads from a stream (io.ReadFull)"
	case analysis.IsMethodOn(info, call, "net", "Conn", "Read"),
		analysis.IsMethodOn(info, call, "net", "Conn", "Write"):
		return "performs conn I/O (net.Conn)"
	case analysis.IsMethodOn(info, call, "io", "Reader", "Read"):
		return "reads from a stream (io.Reader.Read)"
	case analysis.IsMethodOn(info, call, "io", "Writer", "Write"):
		return "writes to a stream (io.Writer.Write)"
	}
	return ""
}

// directBlockingCause reports why a body blocks directly, or "".
func directBlockingCause(info *types.Info, body *ast.BlockStmt) string {
	var cause string
	var visit func(n ast.Node, nonBlockingSelect bool)
	visit = func(n ast.Node, nonBlockingSelect bool) {
		if cause != "" || n == nil {
			return
		}
		switch t := n.(type) {
		case *ast.FuncLit:
			return // opaque: a callback's sleep is charged to its caller
		case *ast.CallExpr:
			if analysis.IsPkgFunc(info, t, "time", "Sleep") {
				cause = "sleeps (time.Sleep)"
				return
			}
			if analysis.IsMethodOn(info, t, "os", "File", "Sync") {
				cause = "fsyncs (os.File.Sync)"
				return
			}
			if c := netBlockingCause(info, t); c != "" {
				cause = c
				return
			}
		case *ast.SendStmt:
			if !nonBlockingSelect {
				cause = "performs a channel send"
				return
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range t.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				cause = "blocks in a select"
				return
			}
			// Sends used as the select's comm ops are non-blocking
			// when a default exists; bodies are ordinary code.
			for _, c := range t.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm != nil {
					visitChildren(cc.Comm, func(n ast.Node) { visit(n, true) })
				}
				for _, s := range cc.Body {
					visit(s, false)
				}
			}
			return
		}
		visitChildren(n, func(n ast.Node) { visit(n, nonBlockingSelect) })
	}
	visit(body, false)
	return cause
}

// visitChildren invokes fn on each direct child node.
func visitChildren(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}

// inspectSkippingFuncLits walks n without descending into function
// literals.
func inspectSkippingFuncLits(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		if c != nil {
			fn(c)
		}
		return true
	})
}

// lockOpInfo describes one direct mutex operation.
type lockOpInfo struct {
	recv    ast.Expr
	mode    byte
	acquire bool
}

// lockOp recognizes sync.Mutex/sync.RWMutex Lock/RLock/Unlock/RUnlock
// calls (including through embedding).
func lockOp(info *types.Info, call *ast.CallExpr) *lockOpInfo {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	recv := sig.Recv()
	switch analysis.TypeName(recv.Type()) {
	case "Mutex", "RWMutex":
	default:
		return nil
	}
	op := &lockOpInfo{recv: sel.X}
	switch fn.Name() {
	case "Lock":
		op.mode, op.acquire = modeW, true
	case "RLock":
		op.mode, op.acquire = modeR, true
	case "Unlock":
		op.mode, op.acquire = modeW, false
	case "RUnlock":
		op.mode, op.acquire = modeR, false
	default:
		return nil
	}
	return op
}

// calleeFunc resolves a call to its package-local function object.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fn].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fn.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// receiverName returns the receiver identifier of a method decl.
func receiverName(decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return ""
	}
	return decl.Recv.List[0].Names[0].Name
}

// walker simulates one function body.
type walker struct {
	idx  *pkgIndex
	pass *analysis.Pass
}

// stmts walks a statement sequence, returning true when every path
// through it terminates (return/branch/panic-free fallthrough ends).
func (w *walker) stmts(list []ast.Stmt, st state) bool {
	for _, s := range list {
		if w.stmt(s, st) {
			return true
		}
	}
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
		for _, e := range t.Lhs {
			w.exprs(e, st)
		}
	case *ast.DeclStmt:
		w.exprs(t, st)
	case *ast.IncDecStmt:
		w.exprs(t.X, st)
	case *ast.SendStmt:
		w.exprs(t.Chan, st)
		w.exprs(t.Value, st)
		if h := anyHeld(st); h != nil {
			w.pass.Reportf(t.Arrow, "%s held across channel send (lock acquired at %s)",
				h.render, w.pass.Fset.Position(h.pos))
		}
	case *ast.DeferStmt:
		w.deferCall(t.Call, st)
	case *ast.GoStmt:
		for _, a := range t.Call.Args {
			w.exprs(a, st)
		}
	case *ast.ReturnStmt:
		for _, e := range t.Results {
			w.exprs(e, st)
		}
		w.checkReturn(st, t.Return)
		return true
	case *ast.BranchStmt:
		return true // break/continue/goto leave this sequence
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
			st.merge(elseSt)
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
		if t.Cond == nil && !hasBreak(t.Body) {
			return true // for{}: only leaves via return inside the body
		}
		st.merge(bodySt)
	case *ast.RangeStmt:
		w.exprs(t.X, st)
		bodySt := st.clone()
		w.stmts(t.Body.List, bodySt)
		st.merge(bodySt)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init ast.Stmt
		var body *ast.BlockStmt
		if sw, ok := t.(*ast.SwitchStmt); ok {
			init, body = sw.Init, sw.Body
			if sw.Tag != nil {
				w.exprs(sw.Tag, st)
			}
		} else {
			ts := t.(*ast.TypeSwitchStmt)
			init, body = ts.Init, ts.Body
			w.stmt(ts.Assign, st)
		}
		if init != nil {
			w.stmt(init, st)
		}
		w.caseClauses(body, st)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			if h := anyHeld(st); h != nil {
				w.pass.Reportf(t.Select, "%s held across blocking select (lock acquired at %s)",
					h.render, w.pass.Fset.Position(h.pos))
			}
		}
		allTerm := true
		merged := make(state)
		for _, c := range t.Body.List {
			cc := c.(*ast.CommClause)
			ccSt := st.clone()
			if cc.Comm != nil {
				// The comm op itself is the select's business; walk it
				// only for lock ops in nested expressions.
				if es, ok := cc.Comm.(*ast.ExprStmt); ok {
					w.exprs(es.X, ccSt)
				}
			}
			if !w.stmts(cc.Body, ccSt) {
				allTerm = false
				merged.merge(ccSt)
			}
		}
		if allTerm && len(t.Body.List) > 0 {
			return true
		}
		replace(st, merged)
	}
	return false
}

// caseClauses walks a switch body: each clause sees the entry state;
// the exit state is the union of non-terminating clauses. The switch
// terminates only when it has a default and every clause terminates.
func (w *walker) caseClauses(body *ast.BlockStmt, st state) {
	entry := st.clone()
	merged := make(state)
	merged.merge(entry) // no default → the fall-through path
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		ccSt := entry.clone()
		for _, e := range cc.List {
			w.exprs(e, ccSt)
		}
		if !w.stmts(cc.Body, ccSt) {
			merged.merge(ccSt)
		}
	}
	replace(st, merged)
}

// deferCall handles `defer x.Unlock()` and unlock-wrapper defers by
// marking the corresponding held entries as covered on every path.
func (w *walker) deferCall(call *ast.CallExpr, st state) {
	if op := lockOp(w.pass.TypesInfo, call); op != nil && !op.acquire {
		key := analysis.Render(op.recv) + ":" + string(op.mode)
		if h, ok := st[key]; ok {
			h.deferred = true
		}
		return
	}
	if callee := calleeFunc(w.pass.TypesInfo, call); callee != nil {
		if ws, ok := w.idx.unlockWrappers[callee]; ok {
			if recv, _ := analysis.CallName(call); recv != nil {
				for _, wr := range ws {
					key := analysis.Render(recv) + wr.suffix + ":" + string(wr.mode)
					if h, ok := st[key]; ok {
						h.deferred = true
					}
				}
			}
			return
		}
	}
	for _, a := range call.Args {
		w.exprs(a, st)
	}
}

// exprs scans an expression tree (skipping function literals) for
// lock operations, wrapper calls, and blocking calls, in that order
// of precedence per call.
func (w *walker) exprs(n ast.Node, st state) {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op := lockOp(w.pass.TypesInfo, call); op != nil {
			key := analysis.Render(op.recv) + ":" + string(op.mode)
			if op.acquire {
				st[key] = &held{render: analysis.Render(op.recv), mode: op.mode, pos: call.Pos()}
			} else {
				delete(st, key)
			}
			return true
		}
		callee := calleeFunc(w.pass.TypesInfo, call)
		if callee != nil {
			if ws, ok := w.idx.lockWrappers[callee]; ok {
				if recv, _ := analysis.CallName(call); recv != nil {
					for _, wr := range ws {
						r := analysis.Render(recv) + wr.suffix
						st[r+":"+string(wr.mode)] = &held{render: r, mode: wr.mode, pos: call.Pos()}
					}
				}
				return true
			}
			if ws, ok := w.idx.unlockWrappers[callee]; ok {
				if recv, _ := analysis.CallName(call); recv != nil {
					for _, wr := range ws {
						delete(st, analysis.Render(recv)+wr.suffix+":"+string(wr.mode))
					}
				}
				return true
			}
			if cause, ok := w.idx.blocking[callee]; ok {
				if h := anyHeld(st); h != nil {
					w.pass.Reportf(call.Pos(), "%s held across call to %s, which %s (lock acquired at %s)",
						h.render, callee.Name(), cause, w.pass.Fset.Position(h.pos))
				}
				return true
			}
		}
		if analysis.IsPkgFunc(w.pass.TypesInfo, call, "time", "Sleep") {
			if h := anyHeld(st); h != nil {
				w.pass.Reportf(call.Pos(), "%s held across time.Sleep (lock acquired at %s)",
					h.render, w.pass.Fset.Position(h.pos))
			}
		} else if analysis.IsMethodOn(w.pass.TypesInfo, call, "os", "File", "Sync") {
			if h := anyHeld(st); h != nil {
				w.pass.Reportf(call.Pos(), "%s held across fsync (lock acquired at %s)",
					h.render, w.pass.Fset.Position(h.pos))
			}
		} else if cause := netBlockingCause(w.pass.TypesInfo, call); cause != "" {
			if h := anyHeld(st); h != nil {
				w.pass.Reportf(call.Pos(), "%s held across network/stream I/O: %s (lock acquired at %s)",
					h.render, cause, w.pass.Fset.Position(h.pos))
			}
		}
		return true
	})
}

// checkReturn reports locks still explicitly held (no unlock, no
// deferred unlock) when a path leaves the function.
func (w *walker) checkReturn(st state, at token.Pos) {
	for _, h := range st {
		if h.deferred {
			continue
		}
		unlock := "Unlock"
		if h.mode == modeR {
			unlock = "RUnlock"
		}
		w.pass.Reportf(at, "%s acquired at %s may still be held on this return path (missing %s)",
			h.render, w.pass.Fset.Position(h.pos), unlock)
	}
}

// hasBreak reports whether body contains any break statement (at any
// nesting — an over-approximation that errs toward walking the code
// after the loop).
func hasBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.BREAK {
			found = true
		}
		return !found
	})
	return found
}

// anyHeld returns an arbitrary held lock, preferring write mode.
func anyHeld(st state) *held {
	var r *held
	for _, h := range st {
		if h.mode == modeW {
			return h
		}
		r = h
	}
	return r
}

// replace overwrites dst's contents with src's.
func replace(dst, src state) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}
