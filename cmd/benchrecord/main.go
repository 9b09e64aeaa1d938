// Command benchrecord writes one entry of the benchmark trajectory:
// BENCH_<pr>.json, the parent commit and this tree measured side by
// side with the repository's one-command benchmark.
//
// It exports the parent revision into a temporary directory, then for
// every workload BENCHMARK.json declares runs `bash bench/run.sh` in
// both trees over interleaved seeds — pair i uses seed i+1 on both
// sides and alternates which side runs first, so host drift lands on
// both — and records, per end-to-end cell, each side's runs, median
// and quartiles and how many pairs the change won. The workload the
// PR's claim is about (-claim) gets ten pairs and one `--trace 1` run
// per side for the per-layer dump, the others three pairs. It only ever
// calls bench/run.sh; it never reads or edits the harness.
//
//	go run ./cmd/benchrecord -pr 19 -parent HEAD~1 -claim wire_rf3   # make bench-record PR=19 CLAIM=wire_rf3
//	go run ./cmd/benchrecord -pr 0 -parent HEAD -smoke               # make bench-record-smoke (CI)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json this tool needs.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// runResult is the line a harness run prints last.
type runResult struct {
	Correct bool  `json:"correct"`
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side is one tree's runs of one cell.
type side struct {
	Runs   []float64 `json:"runs"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// cell compares the two trees on one end-to-end metric of one
// workload. Wins counts the pairs in which the change read better
// (ties count for neither side).
type cell struct {
	Better string `json:"better"`
	Parent side   `json:"parent"`
	Change side   `json:"change"`
	Wins   int    `json:"change_wins"`
	Pairs  int    `json:"pairs"`
}

// record is BENCH_<pr>.json.
type record struct {
	PR        int                         `json:"pr"`
	Parent    string                      `json:"parent"`
	Seconds   float64                     `json:"seconds"`
	Workloads map[string]map[string]*cell `json:"workloads"`
	// Trace holds one --trace 1 layer dump of the claimed workload per
	// side: metric name → value.
	TraceWorkload string                        `json:"trace_workload"`
	Trace         map[string]map[string]float64 `json:"trace"`
}

// Interleaved pairs per workload: one workload carries the PR's claim,
// the others only have to show they did not move.
const (
	pairsClaim = 10
	pairsOther = 3
)

func main() {
	pr := flag.Int("pr", 0, "PR number: the entry is written to BENCH_<pr>.json")
	parent := flag.String("parent", "HEAD~1", "revision to measure as the parent")
	claim := flag.String("claim", "drain_mem", "workload the PR's claim is about: it gets the ten pairs and the traced pair")
	smoke := flag.Bool("smoke", false, "one short pair per workload at the harness's smoke scale: checks this tool, measures and writes nothing")
	flag.Parse()
	if err := run(*pr, *parent, *claim, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "benchrecord:", err)
		os.Exit(1)
	}
}

func run(pr int, parent, claim string, smoke bool) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(bf.Command) == 0 || len(bf.Workloads) == 0 || bf.RunSeconds <= 0 {
		return fmt.Errorf("BENCHMARK.json declares no command, no workloads or no run_seconds")
	}
	known := false
	for _, w := range bf.Workloads {
		known = known || w.Name == claim
	}
	if !known {
		return fmt.Errorf("-claim %s: BENCHMARK.json declares no such workload", claim)
	}
	// An entry is recorded at the run length the benchmark fixes.
	first, other, seconds := pairsClaim, pairsOther, bf.RunSeconds
	if smoke {
		first, other, seconds = 1, 1, 2
	}
	rev, err := exec.Command("git", "rev-parse", "--short", parent).Output()
	if err != nil {
		return fmt.Errorf("resolve %s: %w", parent, err)
	}
	tmp, err := os.MkdirTemp("", "benchrecord-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	export := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", parent, tmp)
	if msg, err := export.CombinedOutput(); err != nil {
		return fmt.Errorf("export %s: %v: %s", parent, err, msg)
	}
	here, err := os.Getwd()
	if err != nil {
		return err
	}
	trees := map[string]string{"parent": tmp, "change": here}

	measure := func(tree, workload string, seed int, trace bool) (map[string]float64, error) {
		secs, traceArg := seconds, "0"
		if trace {
			traceArg = "1"
			if smoke {
				secs = 5 // a traced run splits its time over two passes and needs a few operator queries
			}
		}
		args := append(append([]string(nil), bf.Command[1:]...),
			"--workload", workload, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", traceArg)
		if smoke {
			args = append(args, "--smoke")
		}
		cmd := exec.Command(bf.Command[0], args...)
		cmd.Dir = trees[tree]
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res runResult
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			return nil, fmt.Errorf("%s %s seed %d: %v, no result line: %s", tree, workload, seed, err, stderr.String())
		}
		if err != nil || !res.Correct || res.Failed != 0 {
			return nil, fmt.Errorf("%s %s seed %d: correct=%v failed=%d (%v): %s", tree, workload, seed, res.Correct, res.Failed, err, stderr.String())
		}
		m := make(map[string]float64, len(res.Metrics))
		for name, v := range res.Metrics {
			m[name] = v.Value
		}
		return m, nil
	}

	rec := record{PR: pr, Parent: strings.TrimSpace(string(rev)), Seconds: seconds,
		Workloads: make(map[string]map[string]*cell), Trace: make(map[string]map[string]float64)}
	for _, w := range bf.Workloads {
		n := other
		if w.Name == claim {
			n = first
		}
		cells := make(map[string]*cell)
		for _, m := range bf.EndToEnd {
			cells[m.Name] = &cell{Better: m.Better, Pairs: n}
		}
		for i := 0; i < n; i++ {
			order := []string{"parent", "change"}
			if i%2 == 1 {
				order = []string{"change", "parent"}
			}
			got := make(map[string]map[string]float64)
			for _, tree := range order {
				fmt.Fprintf(os.Stderr, "benchrecord: %s pair %d/%d: %s\n", w.Name, i+1, n, tree)
				if got[tree], err = measure(tree, w.Name, i+1, false); err != nil {
					return err
				}
			}
			for name, c := range cells {
				p, ch := got["parent"][name], got["change"][name]
				c.Parent.Runs, c.Change.Runs = append(c.Parent.Runs, p), append(c.Change.Runs, ch)
				if (c.Better == "lower" && ch < p) || (c.Better == "higher" && ch > p) {
					c.Wins++
				}
			}
		}
		for _, c := range cells {
			c.Parent.summarize()
			c.Change.summarize()
		}
		rec.Workloads[w.Name] = cells
	}
	rec.TraceWorkload = claim
	for _, tree := range []string{"parent", "change"} {
		fmt.Fprintf(os.Stderr, "benchrecord: %s trace: %s\n", rec.TraceWorkload, tree)
		if rec.Trace[tree], err = measure(tree, rec.TraceWorkload, 1, true); err != nil {
			return err
		}
	}

	if smoke {
		fmt.Fprintln(os.Stderr, "benchrecord: smoke run complete; nothing recorded")
		return nil
	}
	enc, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(fmt.Sprintf("BENCH_%d.json", pr), append(enc, '\n'), 0o644)
}

// summarize fills in the median and quartiles of the side's runs.
func (s *side) summarize() {
	sorted := append([]float64(nil), s.Runs...)
	sort.Float64s(sorted)
	s.Q1, s.Median, s.Q3 = quantile(sorted, 0.25), quantile(sorted, 0.5), quantile(sorted, 0.75)
}

// quantile interpolates linearly between the order statistics of a
// sorted, non-empty sample.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}
