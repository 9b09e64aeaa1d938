package main

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// callerDirs are the trees whose non-test files count as callers: the
// root package, the commands, the examples, the internal packages and
// the benchmark harness (its own module, which imports the internal
// packages by their module paths).
var callerDirs = []string{"cmd", "examples", "internal", "bench"}

// allowFile lists, one per line, the uncalled names the caller audit
// accepts: "<import path below the module>.<Name>[.<Method>] <reason>".
const allowFile = "cmd/docsgate/callers.allow"

// auditCallers type-checks every non-test file of the module from
// source and reports each exported package-level name, and each
// exported method, of a package under internal/ that no non-test file
// uses. A method is exempt when its receiver implements an interface
// that declares it — one of the module's, one of the standard library
// packages the module imports, or error. An interface's own methods
// are audited instead: one declared under internal/ is reported when no
// non-test file calls it, through the interface or on a module type
// that implements it. Any other uncalled name must be listed in
// allowFile with a reason; an entry with no reason, or one that names
// nothing uncalled, is itself a problem.
func auditCallers(root string) ([]string, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	// The source importer reads build.Default. With cgo off the standard
	// library type-checks from its pure-Go files, with no C toolchain.
	build.Default.CgoEnabled = false
	l := &loader{
		fset:    token.NewFileSet(),
		pkgs:    map[string]*build.Package{},
		checked: map[string]*types.Package{},
		std:     importer.ForCompiler(token.NewFileSet(), "source", nil),
		stdUsed: map[string]*types.Package{},
		used:    map[types.Object]bool{},
	}
	if err := l.scan(root, module); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.pkgs))
	for path := range l.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}

	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	var concrete []*types.Named
	for _, pkg := range l.checked {
		ifaces = appendInterfaces(ifaces, pkg)
		concrete = appendConcrete(concrete, pkg)
	}
	for _, pkg := range l.stdUsed {
		ifaces = appendInterfaces(ifaces, pkg)
	}

	allowed, problems, err := readAllow(filepath.Join(root, allowFile))
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	report := func(obj types.Object, name string) {
		if allowed[name] {
			seen[name] = true
			return
		}
		p := l.fset.Position(obj.Pos())
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s is called by no non-test file (delete it, or list it in %s with a reason)",
			p.Filename, p.Line, name, allowFile))
	}
	for _, path := range paths {
		if !strings.HasPrefix(path, module+"/internal/") {
			continue
		}
		pkg := l.checked[path]
		prefix := strings.TrimPrefix(path, module+"/") + "."
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !l.used[obj] {
				report(obj, prefix+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					m := iface.ExplicitMethod(i)
					if m.Exported() && !l.calledThrough(iface, m, concrete) {
						report(m, prefix+name+"."+m.Name())
					}
				}
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !l.used[m] && !implementsWith(named, m.Name(), ifaces) {
					report(m, prefix+name+"."+m.Name())
				}
			}
		}
	}
	for name := range allowed {
		if !seen[name] {
			problems = append(problems, fmt.Sprintf("%s: %s names nothing uncalled (drop the line)", allowFile, name))
		}
	}
	return problems, nil
}

// modulePath reads the module line of root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s/go.mod has no module line", root)
}

// loader type-checks the module's packages from source, each once, and
// resolves standard library imports through the source importer.
type loader struct {
	fset    *token.FileSet
	pkgs    map[string]*build.Package // import path → its non-test files
	checked map[string]*types.Package
	std     types.Importer
	stdUsed map[string]*types.Package // standard library packages the module imports
	used    map[types.Object]bool     // every object a non-test file uses
}

// scan finds every directory of the module that holds a buildable
// non-test package and records it under its import path.
func (l *loader) scan(root, module string) error {
	add := func(dir string) error {
		pkg, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		l.pkgs[path] = pkg
		return nil
	}
	if err := add(root); err != nil {
		return err
	}
	for _, top := range callerDirs {
		err := filepath.WalkDir(filepath.Join(root, top), func(dir string, d fs.DirEntry, err error) error {
			if errors.Is(err, fs.ErrNotExist) {
				return filepath.SkipDir
			}
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			return add(dir)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Import returns the checked package for a module path, checking it
// (and, first, its module imports) on first use; any other path is a
// standard library package.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.checked[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	bp, ok := l.pkgs[path]
	if !ok {
		pkg, err := l.std.Import(path)
		if err == nil {
			l.stdUsed[path] = pkg
		}
		return pkg, err
	}
	l.checked[path] = nil
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		l.used[obj] = true
	}
	l.checked[path] = pkg
	return pkg, nil
}

// appendInterfaces adds the package's non-generic named interfaces.
func appendInterfaces(ifaces []*types.Interface, pkg *types.Package) []*types.Interface {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			ifaces = append(ifaces, iface)
		}
	}
	return ifaces
}

// appendConcrete adds the package's non-generic named types that are
// not interfaces.
func appendConcrete(out []*types.Named, pkg *types.Package) []*types.Named {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if ok && named.TypeParams().Len() == 0 && !types.IsInterface(named) {
			out = append(out, named)
		}
	}
	return out
}

// calledThrough reports whether a non-test file calls method m of iface,
// through the interface or on a type of concrete that implements it.
func (l *loader) calledThrough(iface *types.Interface, m *types.Func, concrete []*types.Named) bool {
	if l.used[m] {
		return true
	}
	for _, t := range concrete {
		ptr := types.NewPointer(t)
		if !types.Implements(ptr, iface) {
			continue
		}
		if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil && l.used[obj] {
			return true
		}
	}
	return false
}

// implementsWith reports whether *T (whose method set holds T's)
// implements an interface that declares a method called method.
func implementsWith(t *types.Named, method string, ifaces []*types.Interface) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(t)
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == method && types.Implements(ptr, iface) {
				return true
			}
		}
	}
	return false
}

// readAllow parses allowFile: blank lines and #-comments are skipped,
// and a line without a reason is a problem. A missing file allows
// nothing.
func readAllow(path string) (map[string]bool, []string, error) {
	allowed := map[string]bool{}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return allowed, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var problems []string
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			problems = append(problems, fmt.Sprintf("%s:%d: %s has no reason", path, n, name))
			continue
		}
		allowed[name] = true
	}
	return allowed, problems, sc.Err()
}
