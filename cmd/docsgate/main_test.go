package main

import (
	"os"
	"path/filepath"
	"reflect"
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
