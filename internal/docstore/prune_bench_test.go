package docstore

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkPruneExpired prices a retention prune that removes one
// partition's oldest row: one partition of the alarms' nine fields with
// an index on deviceMac, at 10 000 and 100 000 rows. Each op appends the
// next row untimed and prunes the oldest, so the partition keeps its
// size. The prune is a prefix delete, and gatherLocked rewrites every
// later row of it under the write lock that inserts and reads wait on;
// the op's time and allocations grow with the rows it moves
// (`make bench-persist`).
func BenchmarkPruneExpired(b *testing.B) {
	fields := []string{"alarmId", "deviceMac", "zip", "ts", "duration", "type", "objectType", "sensorType", "softwareVersion"}
	macs := make([]string, 1200)
	for i := range macs {
		macs[i] = fmt.Sprintf("00:1a:2b:%02x:%02x:00", i>>8, i&0xff)
	}
	t0 := time.Unix(1_700_000_000, 0)
	for _, rows := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			c := NewDBWithPartitions(1).Collection("alarms")
			if err := c.CreateIndex("deviceMac"); err != nil {
				b.Fatal(err)
			}
			// Row n is stamped t0+n s, and a prune at t0+(rows+i)s keeps
			// the last rows seconds: it removes row i alone.
			c.SetRetention("ts", time.Duration(rows)*time.Second-time.Second/2)
			batch := c.NewRows(fields...)
			fill := func(lo, hi int) {
				batch.Reset()
				for n := lo; n < hi; n++ {
					copy(batch.Next(), []Cell{
						Int64(int64(n)), String(macs[n%len(macs)]), String("8001"),
						Float(float64(t0.Unix() + int64(n))), Float(float64(n % 600)),
						String("fire"), String("building"), String("smoke"), String("v2.1"),
					})
				}
				c.InsertRows(batch)
			}
			fill(0, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fill(rows+i, rows+i+1)
				b.StartTimer()
				if n, err := c.PruneExpired(t0.Add(time.Duration(rows+i) * time.Second)); err != nil || n != 1 {
					b.Fatalf("prune %d removed %d rows (%v), want 1", i, n, err)
				}
			}
		})
	}
}
