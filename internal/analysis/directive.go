package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Directive comments.
//
//	//alarmvet:ignore <reason>  suppress findings on this line and the
//	                            next (reason mandatory); on a function's
//	                            doc, also exempt it from analyses that
//	                            classify it (lockscope's blocking set).
//	//alarmvet:hotpath          a function hotalloc requires to be
//	                            allocation-free.
//	//alarmvet:guardedby <mu>   a struct field lockscope lets be written
//	                            only with mu, a sync.Mutex or RWMutex
//	                            field of the same struct, held for writing.
//	//alarmvet:snapshot         an atomic pointer field snapshotonly
//	                            guards as a published snapshot.
//
// A bare ignore, a field directive off a struct field, and a guardedby
// naming anything but a mutex field of its struct are findings.
const (
	ignoreDirective    = "//alarmvet:ignore"
	hotpathDirective   = "//alarmvet:hotpath"
	guardedByDirective = "//alarmvet:guardedby"
	snapshotDirective  = "//alarmvet:snapshot"
)

// Directives indexes a package's //alarmvet: comments: the justified
// ignores by file and line, the field directives by field, and the
// malformed or misplaced directives as findings.
type Directives struct {
	fset *token.FileSet
	// ignores maps filename -> line -> reason.
	ignores map[string]map[int]string
	// fields maps a struct field to its directives (the directive, e.g.
	// "//alarmvet:guardedby", -> its argument).
	fields map[*types.Var]map[string]string
	bad    []Diagnostic
}

// directiveArg reports whether comment text is the directive, and its
// trimmed argument ("" when it has none).
func directiveArg(text, directive string) (string, bool) {
	rest, ok := strings.CutPrefix(text, directive)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", false // not it, or some other alarmvet:ignoreXxx token
	}
	return strings.TrimSpace(rest), true
}

// ParseDirectives scans every comment of files for //alarmvet:
// directives; info resolves the fields that field directives sit on.
func ParseDirectives(fset *token.FileSet, files []*ast.File, info *types.Info) *Directives {
	d := &Directives{fset: fset, ignores: make(map[string]map[int]string), fields: make(map[*types.Var]map[string]string)}
	bad := func(pos token.Pos, msg string) {
		d.bad = append(d.bad, Diagnostic{Pos: pos, Analyzer: "directive", Message: msg})
	}
	placed := make(map[*ast.Comment]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					for _, c := range append(comments(fld.Doc), comments(fld.Comment)...) {
						placed[c] = true
						d.field(st, fld, c, info, bad)
					}
				}
			}
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if reason, ok := directiveArg(c.Text, ignoreDirective); ok {
					if reason == "" {
						bad(c.Pos(), "alarmvet:ignore requires a reason (//alarmvet:ignore <why this is safe>)")
						continue
					}
					pos := fset.Position(c.Pos())
					if d.ignores[pos.Filename] == nil {
						d.ignores[pos.Filename] = make(map[int]string)
					}
					d.ignores[pos.Filename][pos.Line] = reason
				}
				if fieldDirective(c.Text) != "" && !placed[c] {
					bad(c.Pos(), strings.TrimPrefix(c.Text, "//")+" must sit on a struct field")
				}
			}
		}
	}
	return d
}

// comments returns a comment group's comments (none for nil).
func comments(cg *ast.CommentGroup) []*ast.Comment {
	if cg == nil {
		return nil
	}
	return cg.List
}

// fieldDirective returns the field directive comment text is, or "".
func fieldDirective(text string) string {
	for _, dir := range []string{guardedByDirective, snapshotDirective} {
		if _, ok := directiveArg(text, dir); ok {
			return dir
		}
	}
	return ""
}

// field records comment c's field directive, if it is one, on every
// name fld declares; a guardedby must name a mutex field of st.
func (d *Directives) field(st *ast.StructType, fld *ast.Field, c *ast.Comment, info *types.Info, bad func(token.Pos, string)) {
	dir := fieldDirective(c.Text)
	if dir == "" {
		return
	}
	arg, _ := directiveArg(c.Text, dir)
	if dir == guardedByDirective && !isMutexField(info.TypeOf(st), arg) {
		bad(c.Pos(), "alarmvet:guardedby must name a sync.Mutex or sync.RWMutex field of the same struct, not "+strconv.Quote(arg))
		return
	}
	for _, name := range fld.Names {
		if v, ok := info.Defs[name].(*types.Var); ok {
			if d.fields[v] == nil {
				d.fields[v] = make(map[string]string)
			}
			d.fields[v][dir] = arg
		}
	}
}

// isMutexField reports whether struct type t has a field name of type
// sync.Mutex or sync.RWMutex.
func isMutexField(t types.Type, name string) bool {
	st, ok := t.(*types.Struct)
	if !ok {
		return false
	}
	for i := range st.NumFields() {
		if f := st.Field(i); f.Name() == name {
			_, isPtr := f.Type().(*types.Pointer)
			return !isPtr && IsMutex(f.Type())
		}
	}
	return false
}

// GuardedBy returns the mutex field a //alarmvet:guardedby directive on
// field v names.
func (d *Directives) GuardedBy(v *types.Var) (string, bool) {
	mu, ok := d.fields[v][guardedByDirective]
	return mu, ok
}

// IsSnapshot reports whether field v carries //alarmvet:snapshot.
func (d *Directives) IsSnapshot(v *types.Var) bool {
	_, ok := d.fields[v][snapshotDirective]
	return ok
}

// IgnoredAt reports whether a finding at pos is suppressed by a
// justified ignore directive on the same line or the line above
// (covering both end-of-line and standalone-comment placement).
func (d *Directives) IgnoredAt(pos token.Pos) (string, bool) {
	p := d.fset.Position(pos)
	byLine := d.ignores[p.Filename]
	if r, ok := byLine[p.Line]; ok {
		return r, true
	}
	r, ok := byLine[p.Line-1]
	return r, ok
}

// Bad returns one finding per malformed or misplaced directive.
func (d *Directives) Bad() []Diagnostic { return d.bad }

// FuncIgnoreReason reports the ignore directive on a function's doc
// comment, exempting the whole function from classification-style
// analyses (lockscope's blocking set, errsink's defer sweep).
func FuncIgnoreReason(fn *ast.FuncDecl) (string, bool) {
	reason, ok := funcDirective(fn, ignoreDirective)
	return reason, ok && reason != ""
}

// IsHotpath reports whether fn carries the //alarmvet:hotpath
// directive in its doc comment.
func IsHotpath(fn *ast.FuncDecl) bool {
	_, ok := funcDirective(fn, hotpathDirective)
	return ok
}

// funcDirective returns the argument of the directive on fn's doc
// comment.
func funcDirective(fn *ast.FuncDecl, directive string) (string, bool) {
	for _, c := range comments(fn.Doc) {
		if arg, ok := directiveArg(c.Text, directive); ok {
			return arg, true
		}
	}
	return "", false
}
