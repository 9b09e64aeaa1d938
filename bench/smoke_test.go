package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestSmoke runs every workload at the smoke scale, untraced and
// traced, and holds the result line to its contract: every named cell
// and layer metric present with its unit, nothing failed, every check
// passed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name, defs, seconds := w.name+"/cells", endToEnd, 2.0
			if trace {
				// Two passes share the seconds, and the operator needs four
				// 100 ms slots of each to ask every kind of query once.
				name, defs, seconds = w.name+"/layers", perLayer, 5.0
			}
			t.Run(name, func(t *testing.T) {
				res, err := execute(options{
					workload: w.name, seed: 7, seconds: seconds, trace: trace,
					sc: smokeScale, outDir: t.TempDir(), started: time.Now(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
				}
				for _, def := range defs {
					got, ok := res.Metrics[def.Name]
					switch {
					case !ok:
						t.Errorf("%s missing", def.Name)
					case got.Unit != def.Unit:
						t.Errorf("%s has unit %q, want %q", def.Name, got.Unit, def.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v", def.Name, got.Value)
					case !trace && got.Value <= 0:
						t.Errorf("%s = %v, an end-to-end cell is never zero", def.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the repository root to the
// tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := describe(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from `bash bench/run.sh -describe`:\n got %+v\nwant %+v", got, want)
	}
}

// TestDueTableOutOfOrder pins the offset → due table against what two
// producers sharing a partition do to it: reports arrive out of offset
// order, and a commit can cover an offset before its send is reported.
func TestDueTableOutOfOrder(t *testing.T) {
	p := newProbe(2, false, nil)
	p.setLatency(true)
	at := func(ms int) time.Time { return p.base.Add(time.Duration(ms) * time.Millisecond) }
	p.sent(1, 3, at(30), at(30), at(31), nil) // offset 3 first: the table grows past 0..2
	p.sent(1, 0, at(0), at(0), at(1), nil)
	p.sent(1, 2, at(20), at(20), at(21), nil)
	p.covered(map[int]int64{1: 4}, at(40), at(41)) // covers 1, whose send is not reported yet
	p.sent(1, 1, at(10), at(10), at(11), nil)
	want := []float64{11, 21, 31, 41} // commit returned at 41 ms
	if got := sorted(p.e2eMS); !reflect.DeepEqual(got, want) {
		t.Errorf("latencies %v, want %v", got, want)
	}
	if err := p.offsetsMatch(map[int]int64{1: 4}); err != nil {
		t.Error(err)
	}
	if missing, _ := p.awaitCommitted(4, time.Millisecond); missing != 0 {
		t.Errorf("%d records uncommitted", missing)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; statistics.quantiles gives 2.75, 8.25", q1, q3)
	}
}
