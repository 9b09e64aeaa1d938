// Command docsgate is the repository's documentation gate, run by CI
// (`make docs-gate`). It fails the build when any of these holds:
//
//   - an exported identifier in one of the audited packages (the ML,
//     core and serve layers documented by ARCHITECTURE.md) has no doc
//     comment,
//   - an audited package has no package-level doc comment,
//   - a relative link in any *.md file points at a path that does not
//     exist,
//   - a backticked -flag in README.md, or in ARCHITECTURE.md's
//     "Scale-out knobs" table, is not a flag cmd/alarmd or cmd/brokerd
//     defines, or
//   - an exported name or method under internal/ has no caller in any
//     non-test file of the module or bench/, is not an interface
//     method, and is not listed in callers.allow with a reason.
//
// Usage:
//
//	docsgate [-root dir] [packages...]
//
// With no package arguments the default audited set is checked.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// defaultPackages is the audited set: the layers whose exported
// surface ARCHITECTURE.md walks through.
var defaultPackages = []string{
	"internal/ml",
	"internal/core",
	"internal/serve",
	"internal/risk",
	"internal/textproc",
	"internal/modelreg",
	"internal/loadgen",
	"internal/metrics",
	"internal/codec",
	"internal/broker",
	"internal/netbroker",
	"internal/docstore",
	"internal/alarm",
	"internal/dataset",
	"internal/analysis",
	"internal/fsync",
}

func main() {
	root := flag.String("root", ".", "repository root to audit")
	flag.Parse()
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = defaultPackages
	}
	var problems []string
	for _, pkg := range pkgs {
		ps, err := auditPackage(*root, pkg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docsgate: %s: %v\n", pkg, err)
			os.Exit(2)
		}
		problems = append(problems, ps...)
	}
	mps, err := auditMarkdown(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docsgate: markdown: %v\n", err)
		os.Exit(2)
	}
	problems = append(problems, mps...)
	fps, err := auditFlags(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docsgate: flags: %v\n", err)
		os.Exit(2)
	}
	problems = append(problems, fps...)
	cps, err := auditCallers(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docsgate: callers: %v\n", err)
		os.Exit(2)
	}
	problems = append(problems, cps...)
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("docsgate: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docsgate: ok")
}

// auditPackage reports exported identifiers without doc comments in
// the package's non-test files.
func auditPackage(root, pkg string) ([]string, error) {
	dir := filepath.Join(root, pkg)
	fset := token.NewFileSet()
	pkgMap, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			p.Filename, p.Line, kind, name))
	}
	for name, p := range pkgMap {
		hasPkgDoc := false
		for _, file := range p.Files {
			if file.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			problems = append(problems,
				fmt.Sprintf("%s: package %s has no package doc comment", dir, name))
		}
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					if recv, ok := receiverType(d); ok && !ast.IsExported(recv) {
						// Methods of unexported types are not part of
						// the package's documented surface.
						continue
					}
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					report(d.Pos(), kind, d.Name.Name)
				case *ast.GenDecl:
					auditGenDecl(d, report)
				}
			}
		}
	}
	return problems, nil
}

// receiverType returns the receiver's type name for a method.
func receiverType(d *ast.FuncDecl) (string, bool) {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return "", false
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name, true
	}
	return "", false
}

// auditGenDecl checks type/var/const declarations: an exported spec
// is documented when either the spec or its enclosing declaration
// carries a comment (the grouped-const idiom).
func auditGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	kind := d.Tok.String()
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && s.Comment == nil && d.Doc == nil {
				report(s.Pos(), kind, s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || s.Comment != nil || d.Doc != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(s.Pos(), kind, name.Name)
				}
			}
		}
	}
}

// mdLink matches inline markdown link targets. Images and reference
// definitions are out of scope; relative inline links are what rots.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// auditMarkdown checks that every relative link in the repository's
// markdown files resolves to an existing file or directory.
func auditMarkdown(root string) ([]string, error) {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "node_modules" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") ||
					strings.HasPrefix(target, "mailto:") ||
					strings.HasPrefix(target, "#") {
					continue
				}
				if idx := strings.IndexByte(target, '#'); idx >= 0 {
					target = target[:idx]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), target)
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems,
						fmt.Sprintf("%s:%d: broken relative link %q", path, i+1, m[1]))
				}
			}
		}
		return nil
	})
	return problems, err
}

// flagCommands are the commands whose flags the docs may name.
var flagCommands = []string{"cmd/alarmd", "cmd/brokerd"}

// auditFlags reports every backticked -flag in README.md, and in the
// "Scale-out knobs" table of ARCHITECTURE.md, that no flagCommands
// command defines.
func auditFlags(root string) ([]string, error) {
	defined := map[string]bool{}
	for _, cmd := range flagCommands {
		if err := definedFlags(filepath.Join(root, cmd), defined); err != nil {
			return nil, err
		}
	}
	var problems []string
	for _, doc := range []struct {
		name    string
		section string // heading the audit is limited to; "" = whole file
	}{{"README.md", ""}, {"ARCHITECTURE.md", "Scale-out knobs"}} {
		path := filepath.Join(root, doc.name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		for _, f := range docFlags(string(data), doc.section) {
			if !defined[f.name] {
				problems = append(problems, fmt.Sprintf("%s:%d: flag -%s is not defined by %s",
					path, f.line, f.name, strings.Join(flagCommands, " or ")))
			}
		}
	}
	return problems, nil
}

// definedFlags adds the name of every flag the package in dir defines
// with a fs.XxxVar(&field, "name", ...) call to names.
func definedFlags(dir string, names map[string]bool) error {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return err
	}
	for _, p := range pkgs {
		ast.Inspect(p, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !strings.HasSuffix(sel.Sel.Name, "Var") {
				return true
			}
			if ref, ok := call.Args[0].(*ast.UnaryExpr); !ok || ref.Op != token.AND {
				return true
			}
			if lit, ok := call.Args[1].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				names[strings.Trim(lit.Value, "`\"")] = true
			}
			return true
		})
	}
	return nil
}

// docFlag is a flag a document names, with the line the name is on.
type docFlag struct {
	name string
	line int
}

// codeSpan matches an inline code span, which may wrap across lines;
// flagName matches the -name a span's text starts with.
var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	flagName = regexp.MustCompile(`^\s*-([A-Za-z][A-Za-z0-9-]*)`)
)

// docFlags returns the flags named by inline code spans that start with
// -name, outside fenced code blocks. With a section, only the table
// rows under the heading containing it (up to the next heading) count.
func docFlags(text, section string) []docFlag {
	lines := strings.Split(text, "\n")
	inSection, fenced := section == "", false
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "```"):
			fenced = !fenced
			lines[i] = ""
			continue
		case !fenced && section != "" && strings.HasPrefix(trimmed, "#"):
			inSection = strings.Contains(trimmed, section)
		}
		if fenced || !inSection || (section != "" && !strings.HasPrefix(trimmed, "|")) {
			lines[i] = ""
		}
	}
	kept := strings.Join(lines, "\n")
	var out []docFlag
	for _, m := range codeSpan.FindAllStringSubmatchIndex(kept, -1) {
		if f := flagName.FindStringSubmatch(kept[m[2]:m[3]]); f != nil {
			out = append(out, docFlag{name: f[1], line: strings.Count(kept[:m[2]], "\n") + 1})
		}
	}
	return out
}
