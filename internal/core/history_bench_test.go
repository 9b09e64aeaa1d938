package core

import (
	"testing"
	"time"

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
