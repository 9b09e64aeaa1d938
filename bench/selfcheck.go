package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// selfCheck asks whether the benchmark repeats: it runs two sets of n
// runs per workload, interleaved A B A B … so that host drift lands on
// both sets alike (README, noise finding 6), each run a child process
// with a seed of its own, and compares the sets cell by cell. A cell
// fails when either set's interquartile range exceeds its bound (or a
// tenth of its median, whichever is smaller) — setup_s, whose spread is
// the host's and not the program's, is exempt from that — or when the
// second set's median is worse than the first's by more than the bound.
func selfCheck(n int, opt options) error {
	if n < 2 {
		return fmt.Errorf("selfcheck needs at least 2 runs per set, got %d", n)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{opt.workload}
	if opt.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	failed := 0
	for _, name := range names {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = make(map[string][]float64)
		}
		for i := 0; i < n; i++ {
			for set := range sets {
				res, err := childRun(exe, name, opt.seed+int64(i), opt)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", name, opt.seed+int64(i), err)
				}
				for cell, v := range res.Metrics {
					sets[set][cell] = append(sets[set][cell], v.Value)
				}
			}
		}
		fmt.Printf("%s — two interleaved sets of %d runs, seeds %d to %d\n", name, n, opt.seed, opt.seed+int64(n)-1)
		for _, def := range endToEnd {
			line, ok := compareSets(def, sets[0][def.Name], sets[1][def.Name])
			fmt.Println("  " + line)
			if !ok {
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d cells do not repeat within their bounds", failed)
	}
	return nil
}

// compareSets renders one cell's two sets and says whether they agree.
func compareSets(def metricDef, a, b []float64) (string, bool) {
	limit := def.Bound
	if def.Name != "setup_s" {
		limit = min(limit, 0.10)
	}
	medA, medB := median(a), median(b)
	spread := func(xs []float64, med float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / med
	}
	sa, sb := spread(a, medA), spread(b, medB)
	worse := (medB - medA) / medA
	if def.Better == "higher" {
		worse = -worse
	}
	verdict, ok := "ok", true
	switch {
	case worse > def.Bound:
		verdict, ok = "FAIL: sets disagree", false
	case def.Name != "setup_s" && max(sa, sb) > limit:
		verdict, ok = "FAIL: spread", false
	case max(sa, sb) > def.Bound/3:
		verdict = "ok (spread above a third of the bound)"
	}
	return fmt.Sprintf("%-17s A %12.4f ±%5.1f%%   B %12.4f ±%5.1f%%   B worse by %+6.1f%%   bound %2.0f%%   %s",
		def.Name, medA, 100*sa, medB, 100*sb, 100*worse, 100*def.Bound, verdict), ok
}

// childRun runs one workload once in a child process and parses the
// result line it prints last.
func childRun(exe, workload string, seed int64, opt options) (result, error) {
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-out", opt.outDir,
	}
	if opt.sc == smokeScale {
		args = append(args, "-smoke")
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%w\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return res, fmt.Errorf("run reported correct=%v with %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
	}
	return res, nil
}
