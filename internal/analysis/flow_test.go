package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"slices"
	"strings"
	"testing"
)

// must is a toy lattice: the functions every path to a point has
// called. Paths meet by intersection, so an exit's set shows exactly
// which paths Walk joined there.
type must map[string]bool

func (m must) Clone() must { return maps.Clone(m) }

func (m must) Join(o must) must {
	maps.DeleteFunc(m, func(k string, _ bool) bool { return !o[k] })
	return m
}

// recorder marks each call a path evaluates and records each exit as
// "<returned literal or }>:<sorted marks>".
type recorder struct{ exits []string }

func (r *recorder) Stmt(s ast.Stmt, st must) {
	switch t := s.(type) {
	case *ast.SelectStmt:
		st["select"] = true
	case *ast.CommClause:
		if t.Comm != nil {
			mark(t.Comm, st)
		}
	default:
		mark(s, st)
	}
}

func (r *recorder) Expr(e ast.Expr, st must) { mark(e, st) }

func (r *recorder) Return(st must, _ token.Pos, results []ast.Expr) {
	at := "}"
	if len(results) > 0 {
		at = results[0].(*ast.BasicLit).Value
	}
	var calls []string
	for k := range st {
		calls = append(calls, k)
	}
	slices.Sort(calls)
	r.exits = append(r.exits, at+":"+strings.Join(calls, ","))
}

func mark(n ast.Node, st must) {
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				st[id.Name] = true
			}
		}
		return true
	})
}

// TestWalkPaths pins the control flow the path-sensitive checkers share:
// which paths reach each exit, and which statements end every path.
func TestWalkPaths(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		exits      []string
	}{
		{"if/else joins", `if c() { f() } else { g() }; h()`, []string{"}:c,h"}},
		{"if without else", `if c() { f(); return 1 }; g()`, []string{"1:c,f", "}:c,g"}},
		{"both branches return", `if c() { return 1 } else { return 2 }`, []string{"1:c", "2:c"}},
		{"switch without default can skip", `switch x() { case y(): f() }; g()`, []string{"}:g,x"}},
		{"switch with default all return", `switch x() { case y(): return 1; default: return 2 }`,
			[]string{"1:x,y", "2:x"}},
		{"type switch with default all return", `switch v := x().(type) { case int: f(v); return 1; default: return 2 }`,
			[]string{"1:f,x", "2:x"}},
		{"case break leaves the switch", `switch { case c(): f(); break; g() }; h()`, []string{"}:h"}},
		{"fallthrough joins the next clause", `switch { case a(): f(); fallthrough; case b(): g(); return 1 }; return 2`,
			[]string{"1:g", "2:"}},
		{"select all return", `select { case <-c(): return 1; case d() <- 1: return 2 }`,
			[]string{"1:c,select", "2:d,select"}},
		{"select with default", `select { case <-c(): f(); default: g() }; h()`, []string{"}:h,select"}},
		{"empty select blocks", `select {}`, nil},
		{"loop may not run", `for c() { f() }; g()`, []string{"}:c,g"}},
		{"range may not run", `for range c() { f(); return 1 }; g()`, []string{"1:c,f", "}:c,g"}},
		{"infinite loop with no break", `for { f() }`, nil},
		{"infinite loop left by break", `for { if c() { continue }; if d() { f(); break }; g() }; return 1`,
			[]string{"1:c,d,f"}},
		{"post runs on paths that go round", `for i := a(); b(); i = p(i) { if c() { continue }; f() }; return 1`,
			[]string{"1:a,b"}},
		{"break in a select leaves the select", `for { select { case <-c(): f(); break }; g() }`, nil},
		{"labeled break leaves both loops", `outer: for { for { if c() { f(); break outer }; g() } }; return 1`,
			[]string{"1:c,f"}},
		{"labeled continue goes round the outer loop", `outer: for a() { for { if c() { continue outer }; return 1 } }; return 2`,
			[]string{"1:a,c", "2:a"}},
		{"goto ends the path", `if c() { goto end }; f(); end: return 1`, []string{"1:c,f"}},
		{"block", `{ f(); return 1 }`, []string{"1:f"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := "package p\nfunc fn() int {\n" + tc.body + "\n}\n"
			f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
			if err != nil {
				t.Fatal(err)
			}
			r := &recorder{}
			Walk(r, f.Decls[0].(*ast.FuncDecl).Body, must{})
			if !slices.Equal(r.exits, tc.exits) {
				t.Errorf("exits %q, want %q", r.exits, tc.exits)
			}
		})
	}
}
