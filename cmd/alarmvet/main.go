// Command alarmvet runs the repository's invariant checkers (see
// internal/analysis) over Go packages. It speaks the `go vet
// -vettool` unitchecker protocol, so the full build graph, export
// data, and action caching come from the go command:
//
//	go build -o bin/alarmvet ./cmd/alarmvet
//	go vet -vettool=bin/alarmvet ./...
//
// Invoked with package patterns (or no arguments) it re-executes
// itself through `go vet`, so `alarmvet ./...` works directly. The
// exit status is 0 when every package is clean, 1 when any checker
// reported a finding.
//
// Checkers: lockscope, batchlife, snapshotonly, hotalloc, errsink.
// `alarmvet help` prints each checker's contract and the directives
// they read: ignore and hotpath, and the field directives guardedby
// (lockscope) and snapshot (snapshotonly).
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"alarmverify/internal/analysis"
	"alarmverify/internal/analysis/batchlife"
	"alarmverify/internal/analysis/errsink"
	"alarmverify/internal/analysis/hotalloc"
	"alarmverify/internal/analysis/lockscope"
	"alarmverify/internal/analysis/snapshotonly"
)

// analyzers is the full suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	lockscope.Analyzer,
	batchlife.Analyzer,
	snapshotonly.Analyzer,
	hotalloc.Analyzer,
	errsink.Analyzer,
}

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && args[0] == "-V=full":
		printVersion()
	case len(args) == 1 && args[0] == "-flags":
		// No tool-specific flags; the empty JSON list tells cmd/go so.
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(unit(args[0]))
	case len(args) == 1 && args[0] == "help":
		help()
	default:
		os.Exit(vet(args))
	}
}

// printVersion implements -V=full: cmd/go stamps the tool's identity
// into the build cache key, so the version must change whenever the
// binary does — the content hash guarantees that.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			//alarmvet:ignore read-only executable self-hash; close error carries no data
			f.Close()
		}
	}
	fmt.Printf("alarmvet version v1-%x\n", h.Sum(nil)[:12])
}

// unit analyzes one compilation unit described by a vet config.
func unit(cfgPath string) int {
	cfg, err := analysis.ReadVetConfig(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alarmvet: %v\n", err)
		return 2
	}
	// The facts file is what cmd/go caches; write it in every outcome
	// that should be cacheable.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, []byte("alarmvet facts v1\n"), 0o666); err != nil {
				fmt.Fprintf(os.Stderr, "alarmvet: %v\n", err)
			}
		}
	}
	if cfg.VetxOnly {
		// Dependency-only visit: nothing to diagnose, just the facts.
		writeVetx()
		return 0
	}
	u, err := cfg.Load()
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			// The compiler will report this better than we can.
			writeVetx()
			return 0
		}
		fmt.Fprintf(os.Stderr, "alarmvet: %s: %v\n", cfg.ImportPath, err)
		return 2
	}
	diags, err := analysis.RunAnalyzers(u, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alarmvet: %s: %v\n", cfg.ImportPath, err)
		return 2
	}
	writeVetx()
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, analysis.Format(u.Fset, d))
	}
	return 1
}

// vet re-executes through `go vet -vettool=self` so package loading,
// export data, and caching are the go command's problem.
func vet(patterns []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "alarmvet: %v\n", err)
		return 2
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"vet", "-vettool=" + exe}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "alarmvet: %v\n", err)
		return 2
	}
	return 0
}

// help prints each checker's contract.
func help() {
	fmt.Println("alarmvet proves the repository's hot-path ownership and locking")
	fmt.Println("invariants at compile time. Checkers:")
	for _, a := range analyzers {
		fmt.Printf("\n%s:\n  %s\n", a.Name, a.Doc)
	}
	fmt.Println("\nDirectives:")
	fmt.Println("  //alarmvet:ignore <reason>  suppress findings on this/next line (reason mandatory)")
	fmt.Println("  //alarmvet:hotpath          function must not allocate (hotalloc)")
	fmt.Println("  //alarmvet:guardedby <mu>   struct field written only with its struct's mutex mu")
	fmt.Println("                              held for writing, or in a ...Locked function (lockscope)")
	fmt.Println("  //alarmvet:snapshot         atomic pointer field loaded once per function, never")
	fmt.Println("                              written through (snapshotonly)")
}
