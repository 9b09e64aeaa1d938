package analysis_test

import (
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alarmverify/internal/analysis"
)

// load typechecks src as the one file of package x.
func load(t *testing.T, src string) *analysis.Unit {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	u, err := analysis.LoadDir(dir, "x")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return u
}

func parseOne(t *testing.T, src string) (*analysis.Unit, *analysis.Directives) {
	t.Helper()
	u := load(t, src)
	return u, analysis.ParseDirectives(u.Fset, u.Files, u.Info)
}

func TestBareIgnoreIsAFinding(t *testing.T) {
	src := `package x

func f() {
	_ = 1 //alarmvet:ignore
}
`
	u, dirs := parseOne(t, src)
	fset := u.Fset
	bad := dirs.Bad()
	if len(bad) != 1 {
		t.Fatalf("Bad = %d findings, want 1", len(bad))
	}
	d := bad[0]
	if d.Analyzer != "directive" {
		t.Errorf("Analyzer = %q, want \"directive\"", d.Analyzer)
	}
	if !strings.Contains(d.Message, "requires a reason") {
		t.Errorf("Message = %q, want it to demand a reason", d.Message)
	}
	if got := fset.Position(d.Pos).Line; got != 4 {
		t.Errorf("finding on line %d, want 4", got)
	}
	// A reason-less directive must not suppress anything either.
	if _, ok := dirs.IgnoredAt(d.Pos); ok {
		t.Error("bare directive suppressed a finding on its own line")
	}
}

func TestJustifiedIgnoreSuppressesItsLineAndTheNext(t *testing.T) {
	src := `package x

func f() {
	//alarmvet:ignore the next line is fine for reasons
	_ = 1
	_ = 2
}
`
	u, dirs := parseOne(t, src)
	fset := u.Fset
	if len(dirs.Bad()) != 0 {
		t.Fatalf("Bad = %v, want none", dirs.Bad())
	}
	lineStart := func(line int) token.Pos {
		return fset.File(token.Pos(fset.Base() - 1)).LineStart(line)
	}
	if _, ok := dirs.IgnoredAt(lineStart(5)); !ok {
		t.Error("line below a standalone ignore is not suppressed")
	}
	if _, ok := dirs.IgnoredAt(lineStart(6)); ok {
		t.Error("suppression leaked two lines below the directive")
	}
}

// badLines returns the lines of the directive findings, with their
// messages.
func badLines(fset *token.FileSet, dirs *analysis.Directives) map[int]string {
	out := make(map[int]string)
	for _, d := range dirs.Bad() {
		if d.Analyzer != "directive" {
			continue
		}
		out[fset.Position(d.Pos).Line] = d.Message
	}
	return out
}

func TestFieldDirectiveOffAFieldIsAFinding(t *testing.T) {
	src := `package x

import "sync/atomic"

//alarmvet:guardedby mu
var counter int

//alarmvet:snapshot
func load(p *atomic.Pointer[int]) *int {
	//alarmvet:guardedby mu
	return p.Load()
}

type ok struct {
	snap atomic.Pointer[int] //alarmvet:snapshot
}
`
	u, dirs := parseOne(t, src)
	got := badLines(u.Fset, dirs)
	for _, line := range []int{5, 8, 10} {
		if !strings.Contains(got[line], "must sit on a struct field") {
			t.Errorf("line %d: finding %q, want one saying the directive must sit on a struct field", line, got[line])
		}
	}
	if len(got) != 3 {
		t.Errorf("findings %v, want lines 5, 8 and 10 only", got)
	}
}

func TestGuardedByMustNameAMutexOfItsStruct(t *testing.T) {
	src := `package x

import "sync"

type other struct{ mu sync.Mutex }

type s struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	ptr *sync.Mutex
	n   int

	a int //alarmvet:guardedby mu
	// b is guarded by the read-write lock.
	//
	//alarmvet:guardedby rw
	b    int
	c, d int //alarmvet:guardedby ptr
	e    int //alarmvet:guardedby n
	f    int //alarmvet:guardedby missing
	g    int //alarmvet:guardedby
	h    struct {
		i int //alarmvet:guardedby mu
	}
}
`
	u, dirs := parseOne(t, src)
	got := badLines(u.Fset, dirs)
	for _, line := range []int{18, 19, 20, 21, 23} {
		if !strings.Contains(got[line], "must name a sync.Mutex or sync.RWMutex field of the same struct") {
			t.Errorf("line %d: finding %q, want one saying guardedby must name a mutex field", line, got[line])
		}
	}
	if len(got) != 5 {
		t.Errorf("findings %v, want lines 18-21 and 23 only", got)
	}
	st := u.Pkg.Scope().Lookup("s").Type().Underlying().(*types.Struct)
	want := map[string]string{"a": "mu", "b": "rw"}
	for i := range st.NumFields() {
		f := st.Field(i)
		mu, ok := dirs.GuardedBy(f)
		if w, guarded := want[f.Name()]; ok != guarded || mu != w {
			t.Errorf("GuardedBy(%s) = %q, %v; want %q, %v", f.Name(), mu, ok, w, guarded)
		}
	}
}
