// Package lockscope proves the repository's lock-scope invariants: a
// partition/collection/consumer mutex must never be held across a
// blocking operation (sleeps, fsync, network/stream I/O, channel sends,
// selects), every Lock/RLock must be paired with its unlock on every
// return path, and a field declared //alarmvet:guardedby mu is written
// only with mu held for writing on every path into the write. The first
// two are the rules the docstore and broker hot paths rely on for tail
// latency: one shard sleeping under a partition lock stalls every reader
// of that partition. The third is the write discipline their readers
// rely on: a store partition's columns and a replica's replication
// state change only in a write section, so a reader under the read lock
// sees them whole.
//
// A guarded write may also sit in a function whose name ends in Locked
// (its callers hold the lock), or write a value the function built
// itself (a composite literal, new or make: nothing else can see it
// yet). Writes are assignments, ++/--, append, clear, copy and delete,
// any &x handed to a call, and calls of a method that writes its
// receiver — a fixpoint over the package's pointer-receiver methods,
// and any pointer-receiver method of another package but sync's.
// They count through the getters and locals that hand out a guarded
// field's elements: p.colLocked(s).set(v), col := p.cols[s], and
// for _, col := range p.cols.
//
// The checker simulates each function body with a branch-aware
// abstract interpreter over the held-lock set: a lock stays in the set
// where paths meet if either holds it (the blocking rule), and counts as
// held for a guarded write only if all of them do. A function literal
// passed straight to a call — not as the operand of go or defer, which
// run it elsewhere or later — is simulated at that call, under the locks
// held there: the callee may run it before it returns (a partition
// visit, a sort's less). Any other literal starts from no lock held.
// Package-local lock wrappers (a method whose body is the Lock, or the
// Unlock) are classified by their bodies and treated as acquire/release
// at call sites; package-local functions whose bodies (transitively)
// sleep, fsync or send are classified as blocking. A function annotated
// //alarmvet:ignore <reason> is exempted from the blocking set and from
// the walk — the audited escape hatch for cold-path admin locks held
// across an atomic file install on purpose (the docstore's
// replaceFileSync, the model registry). The docstore WAL needs none:
// its fsync runs with no mutex held, so every caller that waits for one
// is checked like any other.
package lockscope

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"

	"alarmverify/internal/analysis"
)

// Analyzer is the lockscope checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockscope",
	Doc: "report mutexes held across blocking operations, " +
		"lock/unlock pairs broken on a return path, and writes to " +
		"//alarmvet:guardedby fields outside a write section",
	Run: run,
}

// lock modes.
const (
	modeW = 'w'
	modeR = 'r'
)

// held records one acquired lock: its mode, whether a deferred unlock
// covers it, whether every path to here holds it (sure), and where it
// was acquired.
type held struct {
	render   string
	mode     byte
	deferred bool
	sure     bool
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

// merge joins o into s where two paths meet. A lock held on either
// stays in the set, since the blocking rule asks whether a lock may be
// held; it stays sure only when both paths hold it surely, since the
// guardedby rule asks whether every path holds it.
func (s state) merge(o state) {
	for k, h := range s {
		if oh, ok := o[k]; !ok || !oh.sure {
			h.sure = false
		}
	}
	for k, v := range o {
		if _, ok := s[k]; !ok {
			c := *v
			c.sure = false
			s[k] = &c
		}
	}
}

// join merges b into a, a nil while no path has reached the meet.
func join(a, b state) state {
	if a == nil {
		return b
	}
	a.merge(b)
	return a
}

// lockOp is one acquire or release of a mutex: lock is the rendered
// mutex expression, or for a wrapper method its receiver-relative
// suffix (".mu").
type lockOp struct {
	lock    string
	mode    byte
	acquire bool
}

// pkgIndex is the package-level classification shared by all bodies.
type pkgIndex struct {
	pass *analysis.Pass
	// wrappers maps a lock or unlock wrapper method to what it acquires
	// or releases.
	wrappers map[*types.Func][]lockOp
	// blocking holds package functions that (transitively) block,
	// mapped to a human-readable cause.
	blocking map[*types.Func]string
	// getters maps a method returning a reference into its receiver to
	// the receiver field it hands out (nil: the receiver itself);
	// writers holds the pointer-receiver methods that write their
	// receiver.
	getters map[*types.Func]*types.Var
	writers map[*types.Func]bool
	// binds holds each declaration's local bindings.
	binds map[*ast.FuncDecl]binds
	// atCall holds the function literals simulated at the call they are
	// passed to, which no walk of their own then repeats.
	atCall map[*ast.FuncLit]bool
}

func run(pass *analysis.Pass) error {
	idx := buildIndex(pass)
	analysis.FuncBodies(pass.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit) {
		if obj, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func); idx.wrappers[obj] != nil {
			return // a wrapper's job is to return holding the lock, or not
		}
		if _, ok := analysis.FuncIgnoreReason(decl); ok {
			return
		}
		body := decl.Body
		if lit != nil {
			if idx.atCall[lit] {
				return
			}
			body = lit.Body
		}
		w := &walker{idx: idx, pass: pass, binds: idx.binds[decl],
			locked: strings.HasSuffix(decl.Name.Name, "Locked"), seen: make(map[int]bool)}
		st := make(state)
		if !w.stmts(body.List, st) {
			w.checkReturn(st, body.Rbrace)
		}
	})
	return nil
}

// buildIndex classifies the package's wrappers, blocking functions,
// getters and receiver writers.
func buildIndex(pass *analysis.Pass) *pkgIndex {
	info := pass.TypesInfo
	idx := &pkgIndex{
		pass:     pass,
		wrappers: make(map[*types.Func][]lockOp),
		blocking: make(map[*types.Func]string),
		getters:  make(map[*types.Func]*types.Var),
		writers:  make(map[*types.Func]bool),
		binds:    make(map[*ast.FuncDecl]binds),
		atCall:   make(map[*ast.FuncLit]bool),
	}
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if decl, ok := d.(*ast.FuncDecl); ok && decl.Body != nil && info.Defs[decl.Name] != nil {
				decls = append(decls, decl)
				idx.binds[decl] = bindsOf(info, decl.Body)
			}
		}
	}

	// Wrapper classification: direct lock ops on a receiver field,
	// all acquires (lock wrapper) or all releases (unlock wrapper).
	for _, decl := range decls {
		v := receiverVar(info, decl)
		if v == nil {
			continue
		}
		recv := v.Name()
		var ops []lockOp
		acquires := 0
		inspectSkippingFuncLits(decl.Body, func(n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				if op, ok := mutexOp(info, call); ok && (op.lock == recv || strings.HasPrefix(op.lock, recv+".")) {
					op.lock = strings.TrimPrefix(op.lock, recv)
					ops = append(ops, op)
					if op.acquire {
						acquires++
					}
				}
			}
		})
		if len(ops) > 0 && (acquires == 0 || acquires == len(ops)) {
			idx.wrappers[info.Defs[decl.Name].(*types.Func)] = ops
		}
	}

	// Blocking functions, getters and receiver writers, to a
	// package-local fixpoint: each can make a function that calls it one
	// too. Functions with an //alarmvet:ignore reason are exempt from
	// the blocking set (audited: e.g. the simulated-RTT sleep that
	// models the remote store).
	for changed := true; changed; {
		changed = false
		for _, decl := range decls {
			obj := info.Defs[decl.Name].(*types.Func)
			if _, done := idx.blocking[obj]; !done {
				if _, ignored := analysis.FuncIgnoreReason(decl); !ignored {
					if cause := idx.blockingCause(decl.Body); cause != "" {
						idx.blocking[obj], changed = cause, true
					}
				}
			}
			recv := receiverVar(info, decl)
			if recv == nil {
				continue
			}
			if _, done := idx.getters[obj]; !done {
				if f, ok := idx.handsOut(decl.Body, idx.binds[decl], recv); ok {
					idx.getters[obj], changed = f, true
				}
			}
			if _, ptr := recv.Type().(*types.Pointer); ptr && !idx.writers[obj] && idx.writesTo(decl.Body, idx.binds[decl], recv) {
				idx.writers[obj], changed = true, true
			}
		}
	}
	return idx
}

// binds maps each local variable of a function to the expressions
// assigned to it; a range value is bound to the ranged-over expression.
type binds map[types.Object][]ast.Expr

func bindsOf(info *types.Info, body *ast.BlockStmt) binds {
	b := make(binds)
	bind := func(lhs, rhs ast.Expr) {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			obj := analysis.ObjectOf(info, id)
			b[obj] = append(b[obj], rhs)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			for i := range t.Lhs {
				if len(t.Lhs) == len(t.Rhs) {
					bind(t.Lhs[i], t.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i := range t.Names {
				if len(t.Names) == len(t.Values) {
					bind(t.Names[i], t.Values[i])
				}
			}
		case *ast.RangeStmt:
			if t.Value != nil {
				bind(t.Value, t.X)
			}
		}
		return true
	})
	return b
}

// fresh reports whether base is a local whose every assignment builds a
// new value — a composite literal, its address, new or make — which no
// other goroutine can see yet.
func (b binds) fresh(info *types.Info, base ast.Expr) bool {
	id, ok := base.(*ast.Ident)
	if !ok {
		return false
	}
	rhs := b[analysis.ObjectOf(info, id)]
	for _, r := range rhs {
		if u, ok := ast.Unparen(r).(*ast.UnaryExpr); ok && u.Op == token.AND {
			r = u.X
		}
		switch r := ast.Unparen(r).(type) {
		case *ast.CompositeLit:
		case *ast.CallExpr:
			if name := analysis.BuiltinName(info, r); name != "new" && name != "make" {
				return false
			}
		default:
			return false
		}
	}
	return len(rhs) > 0
}

// isRef reports whether values of t alias what they were assigned from:
// pointers, slices and maps.
func isRef(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// access walks e down to the storage it denotes — through selectors,
// index and slice expressions, derefs and address-ofs, calls of
// getters, and the reference-typed locals bound to such expressions —
// and calls visit with each field selected on the way and the
// expression it is selected from, outermost first, and with a nil field
// and the identifier each walk ends at.
func (x *pkgIndex) access(e ast.Expr, b binds, visit func(f *types.Var, base ast.Expr)) {
	info := x.pass.TypesInfo
	seen := make(map[types.Object]bool)
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		switch t := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if f, ok := info.Uses[t.Sel].(*types.Var); ok && f.IsField() {
				visit(f, ast.Unparen(t.X))
				walk(t.X)
			}
		case *ast.IndexExpr:
			walk(t.X)
		case *ast.SliceExpr:
			walk(t.X)
		case *ast.StarExpr:
			walk(t.X)
		case *ast.UnaryExpr:
			if t.Op == token.AND {
				walk(t.X)
			}
		case *ast.CallExpr:
			if recv, _ := analysis.CallName(t); recv != nil {
				if f, ok := x.getters[calleeFunc(info, t)]; ok {
					if f != nil {
						visit(f, ast.Unparen(recv))
					}
					walk(recv)
				}
			}
		case *ast.Ident:
			obj := analysis.ObjectOf(info, t)
			if obj == nil || seen[obj] {
				return
			}
			seen[obj] = true
			visit(nil, t)
			if isRef(obj.Type()) {
				for _, r := range b[obj] {
					walk(r)
				}
			}
		}
	}
	walk(e)
}

// targets calls fn with each expression node n writes: the left-hand
// sides of an assignment or ++/-- (a bare identifier only rebinds a
// local), the first argument of append, clear, copy and delete, the
// receiver of a call of a receiver-writing method, and each &x handed
// to a call.
func (x *pkgIndex) targets(n ast.Node, fn func(ast.Expr)) {
	lhs := func(e ast.Expr) {
		if _, ok := ast.Unparen(e).(*ast.Ident); !ok {
			fn(e)
		}
	}
	switch t := n.(type) {
	case *ast.AssignStmt:
		for _, l := range t.Lhs {
			lhs(l)
		}
	case *ast.IncDecStmt:
		lhs(t.X)
	case *ast.CallExpr:
		switch analysis.BuiltinName(x.pass.TypesInfo, t) {
		case "append", "clear", "copy", "delete":
			fn(t.Args[0])
		}
		if recv, _ := analysis.CallName(t); recv != nil && x.writesRecv(calleeFunc(x.pass.TypesInfo, t)) {
			fn(recv)
		}
		for _, a := range t.Args {
			if u, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && u.Op == token.AND {
				fn(u.X)
			}
		}
	}
}

// writesRecv reports whether a call of f writes its receiver: a method
// of this package the fixpoint found, or a pointer-receiver method of
// another, whose body export data does not carry — sync's aside, whose
// methods lock rather than write.
func (x *pkgIndex) writesRecv(f *types.Func) bool {
	if f == nil || f.Pkg() == x.pass.Pkg {
		return x.writers[f]
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil || f.Pkg() == nil || f.Pkg().Path() == "sync" {
		return false
	}
	_, ptr := recv.Type().(*types.Pointer)
	return ptr
}

// handsOut reports whether body returns a reference into recv, and the
// receiver field it selects (nil when it returns recv itself).
func (x *pkgIndex) handsOut(body *ast.BlockStmt, b binds, recv *types.Var) (field *types.Var, ok bool) {
	inspectSkippingFuncLits(body, func(n ast.Node) {
		if ret, isRet := n.(*ast.ReturnStmt); isRet {
			for _, r := range ret.Results {
				if isRef(x.pass.TypesInfo.TypeOf(r)) {
					x.access(r, b, func(f *types.Var, base ast.Expr) {
						if !ok && x.is(base, recv) {
							field, ok = f, true
						}
					})
				}
			}
		}
	})
	return field, ok
}

// writesTo reports whether body writes anything it reaches through recv.
func (x *pkgIndex) writesTo(body *ast.BlockStmt, b binds, recv *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		x.targets(n, func(e ast.Expr) {
			x.access(e, b, func(_ *types.Var, base ast.Expr) { found = found || x.is(base, recv) })
		})
		return !found
	})
	return found
}

// is reports whether e is an identifier denoting v.
func (x *pkgIndex) is(e ast.Expr, v *types.Var) bool {
	id, ok := e.(*ast.Ident)
	return ok && x.pass.TypesInfo.Uses[id] == v
}

// blockingCall classifies a call that blocks by itself: the cause, as a
// caller's classification quotes it, and what a lock is held across.
// Network/stream I/O is the wire analogue of fsync: a conn write or read
// under a mutex stalls every owner of that lock for a peer's round-trip
// (or forever, against a stalled peer). Interface-typed stream I/O
// (io.Reader/io.Writer) counts too: the broker's frame codec reads and
// writes TCP conns through exactly those types.
func blockingCall(info *types.Info, call *ast.CallExpr) (cause, across string) {
	switch {
	case analysis.IsPkgFunc(info, call, "time", "Sleep"):
		return "sleeps (time.Sleep)", "time.Sleep"
	case analysis.IsMethodOn(info, call, "os", "File", "Sync"):
		return "fsyncs (os.File.Sync)", "fsync"
	case analysis.IsPkgFunc(info, call, "net", "Dial"),
		analysis.IsPkgFunc(info, call, "net", "DialTimeout"):
		cause = "dials the network (net.Dial)"
	case analysis.IsPkgFunc(info, call, "io", "ReadFull"):
		cause = "reads from a stream (io.ReadFull)"
	case analysis.IsMethodOn(info, call, "net", "Conn", "Read"),
		analysis.IsMethodOn(info, call, "net", "Conn", "Write"):
		cause = "performs conn I/O (net.Conn)"
	case analysis.IsMethodOn(info, call, "io", "Reader", "Read"):
		cause = "reads from a stream (io.Reader.Read)"
	case analysis.IsMethodOn(info, call, "io", "Writer", "Write"):
		cause = "writes to a stream (io.Writer.Write)"
	default:
		return "", ""
	}
	return cause, "network/stream I/O: " + cause
}

// blockingCause reports why a body blocks, directly or through a call
// of a function already classified as blocking, or "".
func (x *pkgIndex) blockingCause(body *ast.BlockStmt) string {
	info := x.pass.TypesInfo
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
			if cause, _ = blockingCall(info, t); cause != "" {
				return
			}
			if callee := calleeFunc(info, t); callee != nil && x.blocking[callee] != "" {
				cause = "calls " + callee.Name() + ", which " + x.blocking[callee]
				return
			}
		case *ast.SendStmt:
			if !nonBlockingSelect {
				cause = "performs a channel send"
				return
			}
		case *ast.SelectStmt:
			if !hasDefault(t.Body) {
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

// hasDefault reports whether a switch or select body has a default
// clause.
func hasDefault(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				return true
			}
		case *ast.CommClause:
			if cc.Comm == nil {
				return true
			}
		}
	}
	return false
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

// mutexOp recognizes sync.Mutex/sync.RWMutex Lock/RLock/Unlock/RUnlock
// calls (including through embedding).
func mutexOp(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return lockOp{}, false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv == nil || !analysis.IsMutex(recv.Type()) {
		return lockOp{}, false
	}
	op, ok := mutexMethods[fn.Name()]
	op.lock = analysis.Render(sel.X)
	return op, ok
}

// mutexMethods are the mutex methods that acquire or release.
var mutexMethods = map[string]lockOp{
	"Lock": {mode: modeW, acquire: true}, "RLock": {mode: modeR, acquire: true},
	"Unlock": {mode: modeW}, "RUnlock": {mode: modeR},
}

// lockOps returns the lock operations a call makes: its own when it is a
// mutex operation, a wrapper's on the wrapper's receiver.
func (x *pkgIndex) lockOps(call *ast.CallExpr) []lockOp {
	if op, ok := mutexOp(x.pass.TypesInfo, call); ok {
		return []lockOp{op}
	}
	recv, _ := analysis.CallName(call)
	ops := x.wrappers[calleeFunc(x.pass.TypesInfo, call)]
	if recv == nil || ops == nil {
		return nil
	}
	out := append([]lockOp(nil), ops...)
	for i := range out {
		out[i].lock = analysis.Render(recv) + out[i].lock
	}
	return out
}

// calleeFunc resolves a call to its function object, the generic
// declaration for a call of an instantiated one.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	}
	if f, ok := info.Uses[id].(*types.Func); ok {
		return f.Origin()
	}
	return nil
}

// receiverVar returns the named receiver of a method decl, or nil.
func receiverVar(info *types.Info, decl *ast.FuncDecl) *types.Var {
	if decl.Recv == nil || len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return nil
	}
	v, _ := info.Defs[decl.Recv.List[0].Names[0]].(*types.Var)
	return v
}

// walker simulates one function body.
type walker struct {
	idx  *pkgIndex
	pass *analysis.Pass
	// binds are the enclosing declaration's; locked is set when its name
	// ends in Locked, so its callers hold the locks its writes need;
	// seen holds the lines a guarded write was reported on.
	binds  binds
	locked bool
	seen   map[int]bool
}

// write checks a write to e against the guardedby directives of the
// fields it reaches.
func (w *walker) write(e ast.Expr, st state) {
	if w.locked {
		return
	}
	w.idx.access(e, w.binds, func(f *types.Var, base ast.Expr) {
		mu, ok := w.pass.Directives.GuardedBy(f)
		if !ok || w.binds.fresh(w.pass.TypesInfo, base) {
			return
		}
		lock := analysis.Render(base) + "." + mu
		line := w.pass.Fset.Position(e.Pos()).Line
		if h := st[lock+":"+string(modeW)]; (h != nil && h.sure) || w.seen[line] {
			return
		}
		w.seen[line] = true
		w.pass.Reportf(e.Pos(), "mutation of %s.%s outside a write section: %s is not held for writing on every path here (lock it first, or name the function ...Locked when its callers hold it)",
			analysis.Render(base), f.Name(), lock)
	})
}

// writes checks every write n makes directly.
func (w *walker) writes(n ast.Node, st state) {
	w.idx.targets(n, func(e ast.Expr) { w.write(e, st) })
}

// heldAcross reports a lock held across what blocks at pos.
func (w *walker) heldAcross(pos token.Pos, st state, what string) {
	if h := anyHeld(st); h != nil {
		w.pass.Reportf(pos, "%s held across %s (lock acquired at %s)", h.render, what, w.pass.Fset.Position(h.pos))
	}
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
		w.writes(t, st)
	case *ast.DeclStmt:
		w.exprs(t, st)
	case *ast.IncDecStmt:
		w.exprs(t.X, st)
		w.writes(t, st)
	case *ast.SendStmt:
		w.exprs(t.Chan, st)
		w.exprs(t.Value, st)
		w.heldAcross(t.Arrow, st, "channel send")
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
		if t.Cond == nil && !analysis.HasBreak(t.Body) {
			return true // for{}: only leaves via return inside the body
		}
		st.merge(bodySt)
	case *ast.RangeStmt:
		w.exprs(t.X, st)
		bodySt := st.clone()
		w.stmts(t.Body.List, bodySt)
		st.merge(bodySt)
	case *ast.SwitchStmt:
		if t.Init != nil {
			w.stmt(t.Init, st)
		}
		if t.Tag != nil {
			w.exprs(t.Tag, st)
		}
		w.caseClauses(t.Body, st)
	case *ast.TypeSwitchStmt:
		if t.Init != nil {
			w.stmt(t.Init, st)
		}
		w.stmt(t.Assign, st)
		w.caseClauses(t.Body, st)
	case *ast.SelectStmt:
		if !hasDefault(t.Body) {
			w.heldAcross(t.Select, st, "blocking select")
		}
		allTerm := true
		var merged state
		for _, c := range t.Body.List {
			cc := c.(*ast.CommClause)
			ccSt := st.clone()
			// The comm op itself is the select's business; walk it only
			// for lock ops in nested expressions.
			if es, ok := cc.Comm.(*ast.ExprStmt); ok {
				w.exprs(es.X, ccSt)
			}
			if !w.stmts(cc.Body, ccSt) {
				allTerm = false
				merged = join(merged, ccSt)
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
// the exit state joins the non-terminating clauses and, without a
// default, the entry state.
func (w *walker) caseClauses(body *ast.BlockStmt, st state) {
	entry := st.clone()
	var merged state
	if !hasDefault(body) {
		merged = entry.clone() // the fall-through path
	}
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		ccSt := entry.clone()
		for _, e := range cc.List {
			w.exprs(e, ccSt)
		}
		if !w.stmts(cc.Body, ccSt) {
			merged = join(merged, ccSt)
		}
	}
	if merged == nil {
		merged = entry // every clause returns
	}
	replace(st, merged)
}

// deferCall handles `defer x.Unlock()` and unlock-wrapper defers by
// marking the corresponding held entries as covered on every path.
func (w *walker) deferCall(call *ast.CallExpr, st state) {
	if ops := w.idx.lockOps(call); ops != nil {
		for _, op := range ops {
			if h := st[op.lock+":"+string(op.mode)]; h != nil && !op.acquire {
				h.deferred = true
			}
		}
		return
	}
	for _, a := range call.Args {
		w.exprs(a, st)
	}
}

// exprs scans an expression tree for writes, then per call for the
// function literals passed to it (callback), lock operations (direct or
// through a wrapper) and blocking calls, in that order of precedence.
// Other function literals are skipped: they get a walk of their own.
func (w *walker) exprs(n ast.Node, st state) {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		w.writes(call, st)
		for _, a := range call.Args {
			if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
				w.callback(lit, st)
			}
		}
		if ops := w.idx.lockOps(call); ops != nil {
			for _, op := range ops {
				key := op.lock + ":" + string(op.mode)
				if op.acquire {
					st[key] = &held{render: op.lock, mode: op.mode, sure: true, pos: call.Pos()}
				} else {
					delete(st, key)
				}
			}
		} else if callee := calleeFunc(w.pass.TypesInfo, call); w.idx.blocking[callee] != "" {
			w.heldAcross(call.Pos(), st, "call to "+callee.Name()+", which "+w.idx.blocking[callee])
		} else if _, across := blockingCall(w.pass.TypesInfo, call); across != "" {
			w.heldAcross(call.Pos(), st, across)
		}
		return true
	})
}

// callback simulates a function literal passed to a call under the
// locks held at the call. Those locks are the call site's to release,
// so a return from the literal is not held to them.
func (w *walker) callback(lit *ast.FuncLit, st state) {
	w.idx.atCall[lit] = true
	in := st.clone()
	for _, h := range in {
		h.deferred = true
	}
	if !w.stmts(lit.Body.List, in) {
		w.checkReturn(in, lit.Body.Rbrace)
	}
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
	clear(dst)
	maps.Copy(dst, src)
}
