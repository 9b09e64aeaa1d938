package docstore

import (
	"fmt"
	"testing"
)

// BenchmarkAggregatePushdown prices the in-database analytics pushdown
// against the streaming reference on the asks serving makes of the
// history: the TopDevices pipeline through Aggregate (a cached group
// count with a central sort and limit), a 64-device BucketCounts sweep
// (the Persist stage's per-device histograms, computed afresh), and
// GroupCounts under a true-fire-alarm filter (a cached group count
// behind a range filter) — over a shard-keyed collection indexed by
// device, as the history's is, swept across the partition count. The
// reference clones every matching document out of the store on every
// ask; the pushdown ships per-partition partials (and answers a
// repeated group count from the partials the partitions keep).
// EXPERIMENTS.md records the measured sweep.
func BenchmarkAggregatePushdown(b *testing.B) {
	const docsN, devices = 4000, 64
	build := func(parts int) *Collection {
		col, err := NewDBWithPartitions(parts).CollectionWithShardKey("alarms", "deviceMac")
		if err != nil {
			b.Fatal(err)
		}
		if err := col.CreateIndex("deviceMac"); err != nil { // as the history's
			b.Fatal(err)
		}
		for i := 0; i < docsN; i++ {
			col.Insert(Doc{
				"deviceMac": fmt.Sprintf("mac-%02d", i%devices),
				"zip":       fmt.Sprintf("%04d", 8000+i%12),
				"alarmType": []string{"fire", "intrusion", "technical"}[i%3],
				"ts":        float64(1_000_000 + i),
				"duration":  float64(i % 600),
			})
		}
		return col
	}
	hist := Bucket{Field: "ts", Origin: 1_000_000, Width: 500}
	macs := make([][]Cond, devices)
	for i := range macs {
		macs[i] = []Cond{
			{Field: "deviceMac", Op: "$eq", Value: String(fmt.Sprintf("mac-%02d", i))},
			{Field: "ts", Op: "$gte", Value: Float(hist.Origin)},
		}
	}
	top := []Stage{countGroup("deviceMac"), SortStage{Field: "-n"}, Limit{N: 10}}
	trueAlarms := Doc{"duration": map[string]any{"$gte": 300.0}, "alarmType": "fire"}
	type ask func(*Collection) error
	asks := []struct {
		name                string
		pushdown, streaming ask
	}{
		{"top_devices",
			func(c *Collection) error { _, err := c.Aggregate(nil, top...); return err },
			func(c *Collection) error { _, err := c.aggregateStreaming(nil, top...); return err }},
		{"histograms",
			func(c *Collection) error { return c.BucketCounts(macs, hist, func(int, []BucketCount) {}) },
			func(c *Collection) error { _, err := c.bucketStreaming(macs, hist); return err }},
		{"zip_counts",
			func(c *Collection) error { _, err := c.GroupCounts(trueAlarms, "zip"); return err },
			func(c *Collection) error { _, err := c.aggregateStreaming(trueAlarms, countGroup("zip")); return err }},
	}
	for _, mode := range []string{"streaming", "pushdown"} {
		for _, parts := range []int{1, 2, 4, 8} {
			for _, a := range asks {
				run := a.pushdown
				if mode == "streaming" {
					run = a.streaming
				}
				b.Run(fmt.Sprintf("mode=%s/partitions=%d/ask=%s", mode, parts, a.name), func(b *testing.B) {
					col := build(parts)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := run(col); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "asks_per_s")
				})
			}
		}
	}
}
