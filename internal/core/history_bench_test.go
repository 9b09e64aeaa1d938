package core

import (
	"fmt"
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
