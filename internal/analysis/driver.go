package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// RunAnalyzers runs every matching analyzer over one typechecked unit
// and returns the surviving findings in position order. Findings in
// _test.go files are dropped (test hammers intentionally violate the
// production invariants), as are findings on lines carrying a
// justified //alarmvet:ignore and repeats of a finding (a loop body is
// walked twice); reason-less ignores and misplaced field directives are
// findings themselves.
func RunAnalyzers(u *Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs := ParseDirectives(u.Fset, u.Files, u.Info)
	raw := append([]Diagnostic(nil), dirs.Bad()...)
	for _, a := range analyzers {
		if a.Match != nil && !a.Match(u.Pkg.Path()) {
			continue
		}
		pass := &Pass{
			Analyzer:   a,
			Fset:       u.Fset,
			Files:      u.Files,
			Pkg:        u.Pkg,
			TypesInfo:  u.Info,
			Directives: dirs,
			report:     func(d Diagnostic) { raw = append(raw, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	var out []Diagnostic
	seen := make(map[Diagnostic]bool, len(raw))
	for _, d := range raw {
		p := u.Fset.Position(d.Pos)
		if strings.HasSuffix(p.Filename, "_test.go") || seen[d] {
			continue
		}
		seen[d] = true
		if _, ok := dirs.IgnoredAt(d.Pos); ok && d.Analyzer != "directive" {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := u.Fset.Position(out[i].Pos), u.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// Format renders a finding the way `go vet` prints its own: position,
// message, and the analyzer tag.
func Format(fset *token.FileSet, d Diagnostic) string {
	return fmt.Sprintf("%s: %s [alarmvet/%s]", fset.Position(d.Pos), d.Message, d.Analyzer)
}
