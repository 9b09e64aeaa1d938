// Command bench is the repository's one-command benchmark: it builds the
// system under test from the repository's own packages, drives one
// workload against it from outside, checks that what came out is
// correct, and prints one JSON line of metrics. README.md in this
// directory defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// processStart is read as early as the runtime allows; setup_s runs
// from here to the first measured operation.
var processStart = time.Now()

// metricDef names one metric. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; the smoke test
// holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the cells a user of the system would see. Bound is the
// share of the parent's median by which a cell may worsen before it is
// a regression, and how far two sets of runs of the same code may
// disagree. Saturation throughput and query latency are not here: on
// the two-core VM this was built on, CPU-bound timings spread by 10 to
// 30 % from run to run whatever the harness does, so they are reported
// among the layers (serve.alarms_per_s, core.query_p50_ms) and gate
// nothing (README, "Cells that did not repeat").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_alarm", "count", "lower", 0.05},
	{"e2e_p50_ms", "ms", "lower", 0.20},
	{"e2e_p90_ms", "ms", "lower", 0.25},
}

// benchmarkFile is BENCHMARK.json: how to run the benchmark and what
// it reports. `bash bench/run.sh -describe` prints it from the tables
// in this package.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run measures when the driver calls it.
const runSeconds = 15

func describe() benchmarkFile {
	f := benchmarkFile{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadDef{w.name, w.why})
	}
	return f
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last on standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options is what the command line (or a test) asks of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	outDir   string
	started  time.Time
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "drain_mem, drain_wal, ops_mix or wire_rf3")
	flag.Int64Var(&opt.seed, "seed", 1, "dataset, arrival schedule and query picks derive from it")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "how long the run measures")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
	smoke := flag.Bool("smoke", false, "run on a few thousand alarms (what the smoke test does)")
	selfcheck := flag.Int("selfcheck", 0, "run two interleaved sets of N runs per workload and compare them")
	describeOnly := flag.Bool("describe", false, "print BENCHMARK.json from the harness's tables and exit")
	flag.StringVar(&opt.outDir, "out", filepath.Join("bench", "out"), "directory for WAL scratch and span dumps")
	flag.Parse()

	// Two cores is what the benchmark is calibrated for; more would only
	// add scheduler noise to a harness that drives at most two
	// connections.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	opt.trace = *trace != 0
	opt.sc = fullScale
	if *smoke {
		opt.sc = smokeScale
	}
	opt.started = processStart

	if *describeOnly {
		out, err := json.MarshalIndent(describe(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	if *selfcheck > 0 {
		if err := selfCheck(*selfcheck, opt); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := execute(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute performs one run and reduces it to the result line. An error
// means the run could not be carried out; a run that finished but
// failed a check or an operation comes back with Correct false.
func execute(opt options) (result, error) {
	w, err := findWorkload(opt.workload)
	if err != nil {
		return result{}, err
	}
	if opt.seconds <= 0 {
		return result{}, fmt.Errorf("seconds must be positive, got %g", opt.seconds)
	}
	calibStart := calibrate()
	e, err := newEnv(opt.sc, opt.seed, opt.outDir, w.name)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(e.runDir)
	r := &run{w: w, e: e, started: opt.started, seconds: opt.seconds}
	logf("%s seed %d: trained %d trees on %d alarms in %.2f s, hold-out accuracy %.3f",
		w.name, opt.seed, e.sc.trees, len(e.train), e.trainS, e.accuracy)
	if e.accuracy < e.sc.minAccuracy {
		r.check("hold-out accuracy", fmt.Errorf("%.3f is below %.2f", e.accuracy, e.sc.minAccuracy))
	}

	var metricsOut map[string]float64
	defs := endToEnd
	if !opt.trace {
		pass, err := r.pass(opt.seconds, nil)
		if err != nil {
			return result{}, err
		}
		metricsOut = r.cells(pass)
		logf("%d e2e samples; generator late p99 %.2f ms, max %.2f ms, %d over %s",
			len(pass.alone.e2eMS), quantile(pass.alone.lateMS, 0.99), quantile(pass.alone.lateMS, 1),
			pass.alone.late+pass.beside.late, lateAfter)
		for _, q := range []float64{0.5, 0.9} {
			logf("p%.0f per slice %.2f; whole phase %.2f", 100*q, pass.alone.perWindow(q), quantile(pass.alone.e2eMS, q))
		}
		logf("gating nothing: serve.alarms_per_s %.0f (closed-loop rounds %.0f), core.query_p50_ms %.2f over %d queries",
			median(pass.closed.perSec), pass.closed.perSec, median(pass.beside.dashboardMS()), len(pass.beside.dashboardMS()))
	} else {
		defs = perLayer
		if metricsOut, err = r.traced(opt); err != nil {
			return result{}, err
		}
	}
	calibEnd := calibrate()
	logf("host.calib_ms %.2f at start, %.2f at end", calibStart, calibEnd)
	if opt.trace {
		metricsOut["host.calib_ms"] = (calibStart + calibEnd) / 2
	}

	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]value, len(defs))}
	for _, def := range defs {
		v, ok := metricsOut[def.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.check("metric "+def.Name, fmt.Errorf("not measured (%v)", v))
			continue
		}
		res.Metrics[def.Name] = value{v, def.Unit}
	}
	for _, p := range r.problems {
		logf("CHECK FAILED: %s", p)
	}
	res.Correct = len(r.problems) == 0 && r.failed == 0
	return res, nil
}

// calibrate times a fixed pure-Go kernel, in milliseconds. The host
// drifts by tens of percent over tens of minutes (README, noise finding
// 6); the figure next to a result says how fast the machine was then.
func calibrate() float64 {
	start := time.Now()
	x, acc := uint64(88172645463325252), 0.0
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += float64(x&1023) * 0.5
	}
	if acc < 0 {
		panic("unreachable: keeps the loop observable")
	}
	return ms(time.Since(start))
}
