package analysis

import (
	"go/ast"
	"go/token"
)

// The path-sensitive checkers (lockscope, batchlife) share one abstract
// interpreter over a function body. Walk owns the control flow:
// sequences, if/else, for and range loops, switch, type switch and
// select, labels, break/continue/fallthrough and return; each checker
// supplies only its state lattice and its hooks.

// Lattice is a checker's abstract state along one path. Clone copies it
// for a path that forks off; Join merges another path's state in where
// two paths meet and returns the result, and may reuse either operand,
// since neither path goes on.
type Lattice[S any] interface {
	Clone() S
	Join(S) S
}

// Hooks are a checker's transfer functions. Stmt applies a statement's
// own effect as a path reaches it: each simple statement (expression,
// assignment, declaration, ++/--, send, defer, go — init and post
// statements too), a select as a whole before its clauses (the select is
// what blocks), and each select clause's communication, as the
// *ast.CommClause, on that clause's path. Expr applies an expression a
// path evaluates: an if or loop condition, a switch tag, a case-list
// entry, a range operand or a returned result. Return checks a state
// leaving the function, at a return statement with its results or at the
// closing brace with none.
type Hooks[S any] interface {
	Stmt(s ast.Stmt, st S)
	Expr(e ast.Expr, st S)
	Return(st S, at token.Pos, results []ast.Expr)
}

// Walk simulates body from st along every path, calling h as each path
// reaches each statement, and h.Return on each path that leaves it. A
// loop body is walked once, from the state on entry; the state after the
// loop joins the paths that skip it, go round again, and break out.
func Walk[S Lattice[S]](h Hooks[S], body *ast.BlockStmt, st S) {
	w := &flow[S]{h: h}
	if st, live := w.stmts(body.List, st); live {
		h.Return(st, body.Rbrace, nil)
	}
}

// HasDefault reports whether a switch or select body has a default
// clause.
func HasDefault(body *ast.BlockStmt) bool {
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

// meet gathers the states of the paths that reach one point.
type meet[S Lattice[S]] struct {
	st      S
	reached bool
}

func (m *meet[S]) add(st S) {
	if !m.reached {
		m.st, m.reached = st, true
	} else {
		m.st = m.st.Join(st)
	}
}

// target is a statement a break can leave: a loop, a switch or a select.
// brk gathers the paths that leave it; next the paths that go round a
// loop again, or fall through into a switch's next clause.
type target[S Lattice[S]] struct {
	label     string
	loop      bool
	brk, next meet[S]
}

type flow[S Lattice[S]] struct {
	h       Hooks[S]
	targets []*target[S]
	// label names the statement the walk is about to reach.
	label string
}

// stmts walks a sequence, returning the state at its end and whether
// any path gets there.
func (w *flow[S]) stmts(list []ast.Stmt, st S) (S, bool) {
	for _, s := range list {
		var live bool
		if st, live = w.stmt(s, st); !live {
			return st, false
		}
	}
	return st, true
}

func (w *flow[S]) stmt(s ast.Stmt, st S) (S, bool) {
	label := w.label
	w.label = ""
	switch t := s.(type) {
	case *ast.ReturnStmt:
		for _, e := range t.Results {
			w.h.Expr(e, st)
		}
		w.h.Return(st, t.Return, t.Results)
		return st, false
	case *ast.BranchStmt:
		w.branch(t, st)
		return st, false
	case *ast.BlockStmt:
		return w.stmts(t.List, st)
	case *ast.LabeledStmt:
		w.label = t.Label.Name
		return w.stmt(t.Stmt, st)
	case *ast.IfStmt:
		w.simple(t.Init, st)
		w.h.Expr(t.Cond, st)
		var out meet[S]
		if then, live := w.stmts(t.Body.List, st.Clone()); live {
			out.add(then)
		}
		if t.Else == nil {
			out.add(st)
		} else if els, live := w.stmt(t.Else, st); live {
			out.add(els)
		}
		return out.st, out.reached
	case *ast.ForStmt:
		w.simple(t.Init, st)
		if t.Cond != nil {
			w.h.Expr(t.Cond, st)
		}
		return w.loop(label, t.Body, t.Post, st, t.Cond != nil)
	case *ast.RangeStmt:
		w.h.Expr(t.X, st)
		return w.loop(label, t.Body, nil, st, true)
	case *ast.SwitchStmt:
		w.simple(t.Init, st)
		if t.Tag != nil {
			w.h.Expr(t.Tag, st)
		}
		return w.clauses(label, t.Body, st, !HasDefault(t.Body))
	case *ast.TypeSwitchStmt:
		w.simple(t.Init, st)
		w.simple(t.Assign, st)
		return w.clauses(label, t.Body, st, !HasDefault(t.Body))
	case *ast.SelectStmt:
		w.h.Stmt(t, st)
		return w.clauses(label, t.Body, st, false)
	default:
		w.simple(s, st)
	}
	return st, true
}

func (w *flow[S]) simple(s ast.Stmt, st S) {
	if s != nil {
		w.h.Stmt(s, st)
	}
}

// loop walks a loop body once from the entry state. The paths that go
// round again (the body's end and each continue) pass through post; the
// loop is left when its condition fails — from the entry state or a
// later iteration's — or by a break. A loop with no condition and no
// break is never left.
func (w *flow[S]) loop(label string, body *ast.BlockStmt, post ast.Stmt, st S, cond bool) (S, bool) {
	tg := w.push(label, true)
	if end, live := w.stmts(body.List, st.Clone()); live {
		tg.next.add(end)
	}
	w.targets = w.targets[:len(w.targets)-1]
	var out meet[S]
	if cond {
		out.add(st)
	}
	if tg.next.reached {
		w.simple(post, tg.next.st)
		if cond {
			out.add(tg.next.st)
		}
	}
	if tg.brk.reached {
		out.add(tg.brk.st)
	}
	return out.st, out.reached
}

// clauses walks a switch or select body: each clause from the entry
// state, a fallthrough into the next clause. The paths leaving the
// statement are the clauses that end or break and, when skip is set (a
// switch with no default), the entry state; a select without a default
// waits for one of its clauses.
func (w *flow[S]) clauses(label string, body *ast.BlockStmt, st S, skip bool) (S, bool) {
	tg := w.push(label, false)
	if skip {
		tg.brk.add(st.Clone())
	}
	for _, c := range body.List {
		cst := st.Clone()
		var list []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.h.Expr(e, cst)
			}
			list = cc.Body
		case *ast.CommClause:
			w.h.Stmt(cc, cst)
			list = cc.Body
		}
		if fell := tg.next; fell.reached {
			cst = cst.Join(fell.st)
		}
		tg.next = meet[S]{}
		if end, live := w.stmts(list, cst); live {
			tg.brk.add(end)
		}
	}
	w.targets = w.targets[:len(w.targets)-1]
	return tg.brk.st, tg.brk.reached
}

func (w *flow[S]) push(label string, loop bool) *target[S] {
	tg := &target[S]{label: label, loop: loop}
	w.targets = append(w.targets, tg)
	return tg
}

// branch hands a break, continue or fallthrough path to the statement
// it goes to; a goto's path is dropped.
func (w *flow[S]) branch(b *ast.BranchStmt, st S) {
	if b.Tok == token.GOTO {
		return
	}
	for i := len(w.targets) - 1; i >= 0; i-- {
		tg := w.targets[i]
		if b.Label != nil && b.Label.Name != tg.label {
			continue
		}
		switch b.Tok {
		case token.BREAK:
			tg.brk.add(st)
		case token.CONTINUE:
			if !tg.loop {
				continue
			}
			tg.next.add(st)
		default: // fallthrough, into the innermost switch's next clause
			tg.next.add(st)
		}
		return
	}
}
