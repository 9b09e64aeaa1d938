package main

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// writeTree writes files (path → content) under a fresh temp root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestAuditFlagsReportsStaleFlags seeds docs naming flags the commands
// no longer define: each stale name is reported at its line, while
// defined flags, flags in fenced blocks, double-dash script options and
// ARCHITECTURE.md text outside the knobs table are left alone.
func TestAuditFlagsReportsStaleFlags(t *testing.T) {
	root := writeTree(t, map[string]string{
		"cmd/alarmd/main.go": `package main

import "flag"

func parse(fs *flag.FlagSet) {
	var shards int
	fs.IntVar(&shards, "shards", 2, "consumer shards")
}
`,
		"cmd/brokerd/main.go": `package main

import "flag"

func parse(fs *flag.FlagSet) {
	var addr string
	fs.StringVar(&addr, "addr", "", "listen address")
}
`,
		"README.md": "- `-shards` sets the shards.\n" +
			"- `-stale-knob` was removed (e.g. `-stale-knob\n  50ms`).\n" +
			"```sh\nalarmd -fenced-only 1\n```\n" +
			"Run `bash bench/run.sh --workload drain_mem`.\n",
		"ARCHITECTURE.md": "Prose may name `-gone-prose`.\n\n" +
			"## Scale-out knobs (and where they live)\n\n" +
			"| Knob | Effect |\n|---|---|\n" +
			"| `-addr` | listen |\n| `-gone` | removed |\n\n" +
			"After the table: `-also-prose`.\n\n## Next section\n\n| `-other-table` | x |\n",
	})
	problems, err := auditFlags(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range problems {
		got = append(got, strings.TrimPrefix(p, root+string(filepath.Separator)))
	}
	want := []string{
		"README.md:2: flag -stale-knob is not defined by cmd/alarmd or cmd/brokerd",
		"README.md:2: flag -stale-knob is not defined by cmd/alarmd or cmd/brokerd",
		"ARCHITECTURE.md:8: flag -gone is not defined by cmd/alarmd or cmd/brokerd",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestAuditFlagsRepoDocs holds the repository's own README and knobs
// table to the flags alarmd and brokerd define.
func TestAuditFlagsRepoDocs(t *testing.T) {
	problems, err := auditFlags(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Fatalf("docs name undefined flags:\n%s", strings.Join(problems, "\n"))
	}
}

// callerTree is a module whose internal package exports a function
// nothing calls (Uncalled), one the command calls (Used), and two
// methods reached only through interfaces: one the module declares
// (Namer) and error.
var callerTree = map[string]string{
	"go.mod": "module example\n\ngo 1.22\n",
	"internal/lib/lib.go": `package lib

// Namer names things.
type Namer interface{ Name() string }

// T is a Namer.
type T struct{}

// Name implements Namer.
func (T) Name() string { return "t" }

// E is an error.
type E struct{}

// Error implements error.
func (E) Error() string { return "e" }

// Used is called by the command.
func Used() Namer { return T{} }

// Uncalled is called by nothing.
func Uncalled() {}
`,
	"internal/lib/lib_test.go": `package lib

import "testing"

func TestUncalled(t *testing.T) { Uncalled() }
`,
	"cmd/app/main.go": `package main

import "example/internal/lib"

func main() {
	var err error = lib.E{}
	println(lib.Used().Name(), err.Error())
}
`,
}

// TestAuditCallersReportsUncalledNames seeds a module with an exported
// function only a test calls: it fails the audit unless the allowlist
// names it with a reason. A reasonless line and a line naming something
// called fail too, and the interface-reached methods never do.
func TestAuditCallersReportsUncalledNames(t *testing.T) {
	for _, tc := range []struct {
		name, allow string
		want        []string
	}{
		{"uncalled", "", []string{"internal/lib/lib.go:22: exported internal/lib.Uncalled is called by no non-test file"}},
		{"allowlisted", "# kept\ninternal/lib.Uncalled the paper's §9 reaches it\n", nil},
		{"no reason", "internal/lib.Uncalled\n", []string{
			"cmd/docsgate/callers.allow:1: internal/lib.Uncalled has no reason",
			"internal/lib/lib.go:22: exported internal/lib.Uncalled is called by no non-test file",
		}},
		{"stale", "internal/lib.Uncalled a reason\ninternal/lib.Used a reason\n", []string{
			"cmd/docsgate/callers.allow: internal/lib.Used names nothing uncalled",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{}
			for name, body := range callerTree {
				files[name] = body
			}
			if tc.allow != "" {
				files[allowFile] = tc.allow
			}
			root := writeTree(t, files)
			problems, err := auditCallers(root)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, p := range problems {
				p = strings.TrimPrefix(p, root+string(filepath.Separator))
				got = append(got, strings.SplitN(p, " (", 2)[0])
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}

// TestAuditCallersReportsUncalledInterfaceMethods seeds an interface
// with one method called through it, one called only on a type that
// implements it, and one only a test calls: the last is reported, at
// the interface, while its implementation stays exempt.
func TestAuditCallersReportsUncalledInterfaceMethods(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example\n\ngo 1.22\n",
		"internal/shape/shape.go": `package shape

// Shape is a rate curve.
type Shape interface {
	// Rate is called through the interface.
	Rate() float64
	// Peak is called on Flat only.
	Peak() float64
	// Name is called by a test only.
	Name() string
}

// Flat is a Shape.
type Flat struct{}

// Rate implements Shape.
func (Flat) Rate() float64 { return 1 }

// Peak implements Shape.
func (Flat) Peak() float64 { return 1 }

// Name implements Shape.
func (Flat) Name() string { return "flat" }

// New returns a Shape.
func New() Shape { return Flat{} }
`,
		"internal/shape/shape_test.go": `package shape

import "testing"

func TestName(t *testing.T) { _ = New().Name() }
`,
		"cmd/app/main.go": `package main

import "example/internal/shape"

func main() { println(shape.New().Rate(), shape.Flat{}.Peak()) }
`,
	})
	problems, err := auditCallers(root)
	if err != nil {
		t.Fatal(err)
	}
	want := "internal/shape/shape.go:10: exported internal/shape.Shape.Name is called by no non-test file"
	if len(problems) != 1 || !strings.HasPrefix(strings.TrimPrefix(problems[0], root+string(filepath.Separator)), want) {
		t.Fatalf("problems:\n%s\nwant one: %s", strings.Join(problems, "\n"), want)
	}
}

// TestAuditCallersExemptsGenericInterfaceInstances seeds a generic
// interface whose instance a type of an importing package implements,
// reached only through a generic function: its method stays exempt,
// while a method of the same type that implements nothing is reported.
func TestAuditCallersExemptsGenericInterfaceInstances(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example\n\ngo 1.22\n",
		"internal/flow/flow.go": `package flow

// Lattice joins states.
type Lattice[S any] interface{ Join(S) S }

// Meet joins b into a.
func Meet[S Lattice[S]](a, b S) S { return a.Join(b) }
`,
		"internal/check/check.go": `package check

import "example/internal/flow"

type set map[string]bool

// Join implements flow.Lattice[set].
func (s set) Join(o set) set { return s }

// Dead implements nothing.
func (s set) Dead() {}

// Use meets two sets.
func Use() { flow.Meet(set{}, set{}) }
`,
		"cmd/app/main.go": `package main

import "example/internal/check"

func main() { check.Use() }
`,
	})
	problems, err := auditCallers(root)
	if err != nil {
		t.Fatal(err)
	}
	want := "internal/check/check.go:11: exported internal/check.set.Dead is called by no non-test file"
	if len(problems) != 1 || !strings.HasPrefix(strings.TrimPrefix(problems[0], root+string(filepath.Separator)), want) {
		t.Fatalf("problems:\n%s\nwant one: %s", strings.Join(problems, "\n"), want)
	}
}

// TestAuditCallersRepo holds the repository to the caller audit: every
// exported name under internal/ has a non-test caller, is an interface
// method, or is listed in callers.allow with a reason.
func TestAuditCallersRepo(t *testing.T) {
	problems, err := auditCallers(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Fatalf("uncalled exported names:\n%s", strings.Join(problems, "\n"))
	}
}
