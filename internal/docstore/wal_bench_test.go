package docstore

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// BenchmarkInsertMany prices the WAL on the store's own batched hot
// path (a persist stage's call shape): alarm-shaped docs in
// batches of 256, memory-only vs WAL-backed at the default group-sync
// interval. The e2e pair is the benchmark harness's drain_wal beside
// drain_mem; this one isolates the docstore layer so WAL encoding
// regressions are visible without the serving pipeline.
// p50-us and p99-us are the per-call latencies: a call that waits for
// the group syncer's fsync shows in the tail (`make bench-persist`).
func BenchmarkInsertMany(b *testing.B) {
	const batchSize = 256
	mkBatch := func(base int) []Doc {
		docs := make([]Doc, batchSize)
		for i := range docs {
			n := base + i
			docs[i] = Doc{
				"deviceMac": fmt.Sprintf("mac-%03d", n%512),
				"alarmId":   int64(1)<<55 + int64(n),
				"ts":        float64(1700000000 + n),
				"duration":  float64(n % 600),
				"type":      n % 8,
				"objType":   n % 5,
				"zip":       fmt.Sprintf("%04d", n%100),
				"sensor":    "sensor-1",
				"swVersion": "v2.3",
			}
		}
		return docs
	}
	for _, store := range []string{"memory", "wal"} {
		b.Run("store="+store, func(b *testing.B) {
			var db *DB
			if store == "wal" {
				var err error
				db, err = OpenDB(b.TempDir(), DurableOptions{Partitions: 4})
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
			} else {
				db = NewDBWithPartitions(4)
			}
			col, err := db.CollectionWithShardKey("alarms", "deviceMac")
			if err != nil {
				b.Fatal(err)
			}
			batches := make([][]Doc, 64)
			for i := range batches {
				batches[i] = mkBatch(i * batchSize)
			}
			took := make([]time.Duration, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				col.InsertMany(batches[i%len(batches)])
				took[i] = time.Since(start)
			}
			b.StopTimer()
			b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
			slices.Sort(took)
			b.ReportMetric(float64(took[b.N/2].Nanoseconds())/1e3, "p50-us")
			b.ReportMetric(float64(took[b.N*99/100].Nanoseconds())/1e3, "p99-us")
		})
	}
}
