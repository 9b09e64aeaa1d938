// Package analysis is the repository's static-analysis framework: a
// dependency-free reimplementation of the golang.org/x/tools
// go/analysis surface that cmd/alarmvet drives, both standalone and
// under `go vet -vettool`. Each checker in the subdirectories
// (lockscope, batchlife, snapshotonly, hotalloc, errsink) proves one of
// the hot-path ownership or locking invariants that the runtime poison
// modes and -race hammers can only catch on exercised paths; this
// package supplies the shared Analyzer/Pass/Diagnostic types, the
// typechecking loaders, the path walker the path-sensitive checkers
// plug their state and hooks into (flow.go), and the //alarmvet:
// directives (directive.go):
// the audited ignores and the declarations — //alarmvet:hotpath on a
// function, //alarmvet:guardedby and //alarmvet:snapshot on a struct
// field — that tell the checkers what to guard, so a rename never
// switches a check off (see ARCHITECTURE.md, "Invariants &
// enforcement").
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named invariant checker. It mirrors the
// golang.org/x/tools go/analysis Analyzer shape so checkers could be
// ported to the upstream framework unchanged if the dependency ever
// becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test output.
	Name string
	// Doc is the one-paragraph description printed by `alarmvet help`.
	Doc string
	// Match restricts the analyzer to packages whose import path it
	// accepts; nil means every package. Pattern-gated analyzers (those
	// keyed on annotations or type shapes) leave it nil.
	Match func(pkgPath string) bool
	// Run performs the analysis on one typechecked package, reporting
	// findings through the pass.
	Run func(*Pass) error
}

// Diagnostic is one finding: a position and a message, tagged with
// the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one typechecked package through one analyzer run.
type Pass struct {
	// Analyzer is the checker this pass runs.
	Analyzer *Analyzer
	// Fset maps positions in Files to file/line/column.
	Fset *token.FileSet
	// Files are the package's parsed sources, comments included.
	Files []*ast.File
	// Pkg is the typechecked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's expression and identifier
	// resolutions for Files.
	TypesInfo *types.Info
	// Directives indexes the //alarmvet: comments of Files.
	Directives *Directives

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Unit is one typechecked compilation unit, however it was loaded
// (vet config, export-data listing, or testdata sources).
type Unit struct {
	// Fset maps positions in Files.
	Fset *token.FileSet
	// Files are the unit's parsed sources.
	Files []*ast.File
	// Pkg is the typechecked package.
	Pkg *types.Package
	// Info holds the type-checker's resolutions for Files.
	Info *types.Info
}

// NewInfo allocates a types.Info with every map analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
