// Command docsgate is the repository's documentation gate, run by CI
// (`make docs-gate`). It fails the build when either:
//
//   - an exported identifier in one of the audited packages (the ML,
//     core and serve layers documented by ARCHITECTURE.md) has no doc
//     comment,
//   - an audited package has no package-level doc comment, or
//   - a relative link in any *.md file points at a path that does not
//     exist.
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
	"internal/anomaly",
	"internal/dataset",
	"internal/analysis",
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
