//go:build !race

package main

import (
	"runtime"
	"testing"

	"alarmverify/internal/alarm"
	"alarmverify/internal/core"
	"alarmverify/internal/dataset"
	"alarmverify/internal/docstore"
)

// TestNumberAfterStoredAllocBudget: a restart finds the highest stored
// alarm id by reading the alarmId column alone — about 40 B a stored
// row, the column's cells and row ids. Rebuilding every stored row as
// an alarm and sorting them, as RecentAlarms does, costs about 450 B a
// row. The race runtime inflates the count, hence the tag.
func TestNumberAfterStoredAllocBudget(t *testing.T) {
	const stored = 50_000
	cfg := dataset.DefaultSitasysConfig()
	cfg.NumAlarms = stored
	cfg.NumDevices = 2_000
	cfg.PayloadBytes = 0
	alarms := dataset.GenerateSitasys(dataset.NewWorld(42), cfg)
	h, err := core.NewHistory(docstore.NewDBWithPartitions(4))
	if err != nil {
		t.Fatal(err)
	}
	h.RecordBatch(alarms)
	var last int64
	for i := range alarms {
		last = max(last, alarms[i].ID)
	}

	replay := make([]alarm.Alarm, 16)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	numberAfterStored(h, replay)
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / stored
	t.Logf("numberAfterStored over %d stored rows: %.1f B a row", stored, perRow)
	if replay[0].ID != last+1 || replay[len(replay)-1].ID != last+int64(len(replay)) {
		t.Fatalf("replay numbered %d..%d, want %d..%d", replay[0].ID, replay[len(replay)-1].ID, last+1, last+int64(len(replay)))
	}
	if perRow > 64 {
		t.Fatalf("numberAfterStored: %.1f B a stored row, budget 64", perRow)
	}
}
