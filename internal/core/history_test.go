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

// A histogram issued right after RecordBatch returns must include that
// batch (read-your-writes: the batch is in the store when the call
// returns).
func TestWriteBehindReadYourWrites(t *testing.T) {
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
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

// Concurrent writers, each paying the simulated round-trip, must land
// every alarm exactly once.
func TestWriteBehindBoundedAndComplete(t *testing.T) {
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	h.SetSimulatedRTT(200 * time.Microsecond)

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
	want := workers * batchesEach * perBatch
	if h.Len() != want {
		t.Fatalf("len = %d, want %d", h.Len(), want)
	}
	if byZIP, err := h.CountByLocation(); err != nil || byZIP["8001"] != want {
		t.Fatalf("by location = %v (%v), want 8001:%d", byZIP, err, want)
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
			h.Record(&a, alarm.Verification{})
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

// TestEveryHistoryReadPaysSimulatedRTT: under a simulated store
// round-trip, every History read takes at least one — a read that
// skipped it would look faster than the remote store it stands in for
// (CountByLocation did, until it paid it like the others).
func TestEveryHistoryReadPaysSimulatedRTT(t *testing.T) {
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	alarms := historyAlarms(50, "mac-a")
	h.RecordBatch(alarms)
	h.RecordFeedback(Feedback{AlarmID: 1, DeviceMAC: "mac-a", Verdict: alarm.False, At: alarms[0].Timestamp})
	const rtt = 2 * time.Millisecond
	h.SetSimulatedRTT(rtt)
	since := alarms[0].Timestamp.Add(-time.Hour)
	for _, read := range []struct {
		name string
		call func() error
	}{
		{"RecentAlarms", func() error { _, err := h.RecentAlarms(10); return err }},
		{"Verdicts", func() error { h.Verdicts(); return nil }},
		{"Feedbacks", func() error { _, err := h.Feedbacks(); return err }},
		{"FeedbackLabels", func() error { _, err := h.FeedbackLabels(); return err }},
		{"DeviceHistogram", func() error { _, err := h.DeviceHistogram("mac-a", since, time.Hour); return err }},
		{"DeviceHistograms", func() error { _, err := h.DeviceHistograms([]string{"mac-a"}, since, time.Hour); return err }},
		{"TopDevices", func() error { _, err := h.TopDevices(3); return err }},
		{"CountByLocation", func() error { _, err := h.CountByLocation(); return err }},
	} {
		start := time.Now()
		if err := read.call(); err != nil {
			t.Fatalf("%s: %v", read.name, err)
		}
		if took := time.Since(start); took < rtt {
			t.Errorf("%s took %v under a simulated %v round-trip", read.name, took, rtt)
		}
	}
}
