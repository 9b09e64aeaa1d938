package core

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/docstore"
)

func historyAlarms(n int, mac string) []alarm.Alarm {
	base := time.Date(2016, 2, 11, 10, 0, 0, 0, time.UTC)
	out := make([]alarm.Alarm, n)
	for i := range out {
		out[i] = alarm.Alarm{
			ID:        int64(i + 1),
			DeviceMAC: mac,
			ZIP:       "8001",
			Timestamp: base.Add(time.Duration(i) * time.Minute),
			Duration:  90,
			Type:      alarm.TypeFire,
		}
	}
	return out
}

// Write-behind must be invisible to readers: a histogram issued right
// after RecordBatch returns must include that batch (read-your-writes
// via the flush barrier).
func TestWriteBehindReadYourWrites(t *testing.T) {
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	h.EnableWriteBehind(1024)
	defer h.Close()

	alarms := historyAlarms(120, "mac-a")
	h.RecordBatch(alarms)
	buckets, err := h.DeviceHistogram("mac-a", alarms[0].Timestamp, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range buckets {
		total += b.Count
	}
	if total != len(alarms) {
		t.Fatalf("histogram saw %d alarms, want %d", total, len(alarms))
	}
	if h.Len() != len(alarms) {
		t.Fatalf("len = %d, want %d", h.Len(), len(alarms))
	}
}

// Batches enqueued while a flush is in flight must coalesce into few
// store round-trips — that is the point of the write-behind buffer.
func TestWriteBehindCoalesces(t *testing.T) {
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	h.SetSimulatedRTT(2 * time.Millisecond)
	h.EnableWriteBehind(100_000)
	defer h.Close()

	const batches = 50
	for i := 0; i < batches; i++ {
		h.RecordBatch(historyAlarms(10, "mac-b"))
	}
	h.Flush()
	if h.Len() != batches*10 {
		t.Fatalf("len = %d, want %d", h.Len(), batches*10)
	}
	if n := h.WriteBehindFlushes(); n >= batches/2 {
		t.Errorf("%d flushes for %d batches — no coalescing happened", n, batches)
	}
}

// The queue bound must hold writers back rather than buffer without
// limit, and every document must still land exactly once.
func TestWriteBehindBoundedAndComplete(t *testing.T) {
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	h.SetSimulatedRTT(200 * time.Microsecond)
	h.EnableWriteBehind(64) // far below the write volume

	const workers, batchesEach, perBatch = 4, 25, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batchesEach; b++ {
				h.RecordBatch(historyAlarms(perBatch, "mac-c"))
			}
		}(w)
	}
	wg.Wait()
	h.Close()
	want := workers * batchesEach * perBatch
	if h.Len() != want {
		t.Fatalf("len = %d, want %d", h.Len(), want)
	}
	// Close is idempotent and the history stays readable after it.
	h.Close()
	if _, err := h.CountByLocation(); err != nil {
		t.Fatal(err)
	}
}

// After Close, Record/RecordBatch fall back to the synchronous path
// instead of losing writes.
func TestWriteBehindClosedFallsBackToSync(t *testing.T) {
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	h.EnableWriteBehind(128)
	h.Close()
	a := historyAlarms(3, "mac-d")
	h.RecordBatch(a)
	h.Record(&a[0])
	if h.Len() != 4 {
		t.Fatalf("len = %d, want 4", h.Len())
	}
}

// TestTopDevicesTieOrder pins the ranking on a tied dataset against a
// stable sort of every group — what TopDevices did before it selected
// the k largest in one pass: count descending, ties in ingest order.
func TestTopDevicesTieOrder(t *testing.T) {
	h, err := NewHistory(docstore.NewDBWithPartitions(4))
	if err != nil {
		t.Fatal(err)
	}
	// 40 devices, counts 1 to 5 with many ties, first seen in an order
	// unrelated to their count.
	_, alarms := testAlarms(1)
	counts := make(map[string]int)
	var ingest []string // devices by first appearance
	for round := 0; round < 5; round++ {
		for dev := 0; dev < 40; dev++ {
			if (dev*7+3)%5 < round {
				continue
			}
			a := alarms[0]
			a.DeviceMAC = fmt.Sprintf("dev-%02d", (dev*13)%40)
			if counts[a.DeviceMAC] == 0 {
				ingest = append(ingest, a.DeviceMAC)
			}
			counts[a.DeviceMAC]++
			h.Record(&a)
		}
	}
	want := make([]DeviceCount, len(ingest))
	for i, mac := range ingest {
		want[i] = DeviceCount{Mac: mac, Count: counts[mac]}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].Count > want[j].Count })
	for _, k := range []int{1, 7, 10, 39, 40, 100} {
		got, err := h.TopDevices(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[:min(k, len(want))]) {
			t.Fatalf("TopDevices(%d) = %v, want %v", k, got, want[:min(k, len(want))])
		}
	}
	if got, _ := h.TopDevices(0); got != nil {
		t.Fatalf("TopDevices(0) = %v, want nil", got)
	}
}
