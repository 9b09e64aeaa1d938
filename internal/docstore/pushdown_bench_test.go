package docstore

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkAggregatePushdown prices the in-database analytics
// pushdown against the streaming oracle it replaced: the same
// analytics mix — a group-by-device count/sum rollup, a top-K scan,
// and a per-device time histogram — over a shard-keyed collection,
// swept across the partition count. Streaming clones every matching
// document out of the store on every query; pushdown ships
// per-partition partials (and answers repeated plans from the partials
// the partitions keep), so the gap widens with corpus size.
// EXPERIMENTS.md records the measured sweep.
func BenchmarkAggregatePushdown(b *testing.B) {
	const docsN = 4000
	build := func(parts int) *Collection {
		col, err := NewDBWithPartitions(parts).CollectionWithShardKey("alarms", "deviceMac")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < docsN; i++ {
			col.Insert(Doc{
				"deviceMac": fmt.Sprintf("mac-%02d", i%32),
				"zip":       fmt.Sprintf("%04d", 8000+i%12),
				"ts":        float64(1_000_000 + i),
				"duration":  float64(i % 600),
			})
		}
		return col
	}
	modes := []struct {
		name string
		run  func(*Collection, Doc, ...Stage) ([]Doc, error)
	}{
		{"streaming", (*Collection).aggregateStreaming},
		{"pushdown", (*Collection).Aggregate},
	}
	for _, mode := range modes {
		for _, parts := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("mode=%s/partitions=%d", mode.name, parts), func(b *testing.B) {
				col := build(parts)
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				queries := 0
				for i := 0; i < b.N; i++ {
					if _, err := mode.run(col, nil, Group{
						By: []string{"deviceMac"},
						Accs: map[string]Accumulator{
							"n": {Op: "count"}, "d": {Op: "sum", Field: "duration"}},
					}, SortStage{Field: "-n"}, Limit{N: 5}); err != nil {
						b.Fatal(err)
					}
					if _, err := mode.run(col, nil,
						SortStage{Field: "-duration"}, Limit{N: 10}); err != nil {
						b.Fatal(err)
					}
					if _, err := mode.run(col, Doc{"deviceMac": "mac-07"},
						Bucket{Field: "ts", Origin: 1_000_000, Width: 500}); err != nil {
						b.Fatal(err)
					}
					queries += 3
				}
				elapsed := time.Since(start)
				b.StopTimer()
				b.ReportMetric(float64(queries)/elapsed.Seconds(), "aggs_per_s")
			})
		}
	}
}
