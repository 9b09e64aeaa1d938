package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/dataset"
	"alarmverify/internal/docstore"
)

// The persist stage's two store calls at the size of one benchmark
// drain round, for before/after comparisons of the store's write and
// read paths: 40 000 alarms recorded 512 at a time into a fresh
// 4-partition history, and one histogram sweep over every device of
// such a history.

func BenchmarkRecordBatch(b *testing.B) {
	_, alarms := testAlarms(40_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h, err := NewHistory(docstore.NewDBWithPartitions(4))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for lo := 0; lo < len(alarms); lo += 512 {
			h.RecordBatch(alarms[lo:min(lo+512, len(alarms))])
		}
	}
}

func BenchmarkDeviceHistograms(b *testing.B) {
	_, alarms := testAlarms(40_000)
	h, err := NewHistory(docstore.NewDBWithPartitions(4))
	if err != nil {
		b.Fatal(err)
	}
	h.RecordBatch(alarms)
	seen := make(map[string]bool)
	var sc histScratch
	for i := range alarms {
		if mac := alarms[i].DeviceMAC; !seen[mac] {
			seen[mac] = true
			sc.macs = append(sc.macs, mac)
		}
	}
	since := alarms[0].Timestamp.Add(-30 * 24 * time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.deviceHistograms(&sc, since, 24*time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(sc.macs)), "devices")
}

// persistFill grows a 4-partition memory history over a fixed device
// population, and builds the 512-alarm batches the persist stage stores
// next. Alarm g belongs to device g mod persistDevices and is stamped g
// ms after a fixed start, so every stored row lies in the 30-day window
// a per-device histogram sweep of the next batch reads, and a batch
// names 512 distinct devices. What a device holds grows with the store:
// 25 rows at 50 000, 400 at 800 000.
type persistFill struct {
	h          *History
	app        *ConsumerApp
	macs, zips []string
	next       int // the number of the next alarm
	batch      Batch
}

const persistDevices = 2_000

func newPersistFill(tb testing.TB) *persistFill {
	tb.Helper()
	h, err := NewHistory(docstore.NewDBWithPartitions(4))
	if err != nil {
		tb.Fatal(err)
	}
	f := &persistFill{h: h, app: NewConsumerAppFor(nil, 0, nil, h, DefaultConsumerConfig())}
	for d := 0; d < persistDevices; d++ {
		f.macs = append(f.macs, fmt.Sprintf("02:00:00:00:%02x:%02x", d>>8, d&0xff))
	}
	for z := 0; z < 20; z++ {
		f.zips = append(f.zips, fmt.Sprint(8000+z))
	}
	f.batch = Batch{Alarms: make([]alarm.Alarm, 512), Devices: make([]string, 512),
		Verified: make([]alarm.Verification, 512)}
	return f
}

// fillTo records verified alarms, 512 at a time, until the history
// holds rows of them: the rows a serving store holds, so the next
// batch's verdict columns extend columns that already exist.
func (f *persistFill) fillTo(rows int) {
	for f.next < rows {
		f.nextBatch(min(512, rows-f.next))
		f.h.recordBatch(f.app.rows, f.batch.Alarms, f.batch.Verified)
	}
}

// nextBatch fills f.batch with the next n alarms, at most 512, their
// verdicts and their devices, allocating nothing.
func (f *persistFill) nextBatch(n int) {
	start := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	b := &f.batch
	b.Alarms, b.Verified, b.Devices = b.Alarms[:n], b.Verified[:n], b.Devices[:n]
	for i := range b.Alarms {
		g := f.next + i
		b.Alarms[i] = alarm.Alarm{ID: int64(g + 1), DeviceMAC: f.macs[g%persistDevices],
			ZIP: f.zips[g%len(f.zips)], Timestamp: start.Add(time.Duration(g) * time.Millisecond),
			Duration: 1, Type: alarm.TypeIntrusion, SensorType: "pir"}
		b.Verified[i] = alarm.Verification{AlarmID: int64(g + 1), Probability: 0.5, ModelName: "rf", ModelVersion: 1}
		b.Devices[i] = b.Alarms[i].DeviceMAC
	}
	f.next += n
}

// BenchmarkPersist times the persist stage, ConsumerApp.Persist of
// 512-alarm batches with their verdicts, on a memory history that
// holds rows alarms when the timer starts: ns and allocations an alarm.
// Every op stores one more batch, so run it at a fixed iteration count
// (make bench-persist runs -benchtime 50x: 25 600 rows more by the
// end). Its cost must not grow with the store: the stage stores and
// reads nothing back.
func BenchmarkPersist(b *testing.B) {
	for _, rows := range []int{50_000, 800_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			f := newPersistFill(b)
			f.fillTo(rows)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f.nextBatch(512)
				b.StartTimer()
				if err := f.app.Persist(&f.batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			alarms := float64(b.N * len(f.batch.Alarms))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/alarms, "ns/alarm")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/alarms, "allocs/alarm")
		})
	}
}

// operatorHistory is a 4-partition history holding n synthetic alarms
// recorded 512 at a time: at 30 000 over 1 200 devices, the size of the
// store the benchmark harness's operator reads (ops_mix's training
// alarms plus its paced ingest); at 250 000 over 8 000 devices, a
// long-running daemon's, which a retrain reads the newest 50 000 of.
func operatorHistory(tb testing.TB, n, devices int) (*History, []alarm.Alarm) {
	tb.Helper()
	cfg := dataset.DefaultSitasysConfig()
	cfg.NumAlarms, cfg.NumDevices, cfg.Seed, cfg.PayloadBytes = n, devices, 1, 0
	alarms := dataset.GenerateSitasys(dataset.NewWorld(1), cfg)
	h, err := NewHistory(docstore.NewDBWithPartitions(4))
	if err != nil {
		tb.Fatal(err)
	}
	for lo := 0; lo < n; lo += 512 {
		h.RecordBatch(alarms[lo:min(lo+512, n)])
	}
	return h, alarms
}

// operatorQuery is one of the benchmark harness operator's calls.
type operatorQuery struct {
	name string
	call func() error
}

// operatorQueries are the benchmark harness operator's four calls, with
// its arguments: the three dashboard panels and one device's histogram.
func operatorQueries(h *History, mac string) []operatorQuery {
	since := time.Date(2015, 10, 1, 0, 0, 0, 0, time.UTC)
	return []operatorQuery{
		{"top_devices", func() error { _, err := h.TopDevices(10); return err }},
		{"recent", func() error { _, err := h.RecentAlarms(100); return err }},
		{"by_location", func() error { _, err := h.CountByLocation(); return err }},
		{"device_histogram", func() error { _, err := h.DeviceHistogram(mac, since, 24*time.Hour); return err }},
	}
}

// BenchmarkOperatorQueries times the harness operator's four calls on
// the 30 000-row store its ops_mix workload reads.
func BenchmarkOperatorQueries(b *testing.B) {
	h, alarms := operatorHistory(b, 30_000, 1_200)
	for _, q := range operatorQueries(h, alarms[0].DeviceMAC) {
		b.Run("query="+q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := q.call(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecentAlarms times the newest-n read on a 250 000-row
// history: a dashboard's 100 and a retrain window's 50 000.
func BenchmarkRecentAlarms(b *testing.B) {
	h, _ := operatorHistory(b, 250_000, 8_000)
	for _, n := range []int{100, 50_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out, err := h.RecentAlarms(n); err != nil || len(out) != n {
					b.Fatalf("RecentAlarms(%d) = %d alarms, %v", n, len(out), err)
				}
			}
		})
	}
}
