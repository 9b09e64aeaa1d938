package broker

import (
	"runtime/debug"
	"slices"
	"testing"
	"time"
)

// BenchmarkAppendLongLog appends 2 000 000 records of 16-byte values,
// one at a time, to one partition that no group releases, and reports
// the slowest single append (max-us) and the median (p50-ns) of each
// fill. A log that regrows one slice of headers stalls an append for
// as long as copying it takes, hundreds of milliseconds near the end,
// under the lock every producer and fetch of the partition waits on.
// Run it with -benchtime 1x: one fill is an iteration.
func BenchmarkAppendLongLog(b *testing.B) {
	const n = 2_000_000
	recs := []Record{{Key: []byte("dev-1"), Value: make([]byte, 16)}}
	took := make([]time.Duration, n)
	var worst, median time.Duration
	for i := 0; i < b.N; i++ {
		// Each fill starts as in a fresh process: the last fill's log
		// collected and its memory returned to the system, which the
		// runtime would otherwise do in the background, beside the
		// next fill's appends.
		debug.FreeOSMemory()
		br := New()
		topic, err := br.CreateTopic("alarms", 1)
		if err != nil {
			b.Fatal(err)
		}
		for j := range took {
			start := time.Now()
			if _, err := topic.Append(0, -1, 0, recs); err != nil {
				b.Fatal(err)
			}
			took[j] = time.Since(start)
		}
		br.Close()
		slices.Sort(took)
		worst, median = max(worst, took[n-1]), took[n/2]
	}
	b.ReportMetric(float64(worst.Microseconds()), "max-us")
	b.ReportMetric(float64(median.Nanoseconds()), "p50-ns")
}
