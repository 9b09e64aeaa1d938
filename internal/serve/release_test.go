package serve

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
)

// TestDrainReleasesBrokerLog: a shard set drains an in-process broker
// while a producer keeps appending, and the shards' leases pin the
// partitions they read, so most blocks the commits release are
// released under a pin and cannot be reused at once: the collector has
// to take them. The live heap must still stay within a fixed slack of
// the uncommitted tail and what the store keeps, at every sample and
// once the drain is done. Each alarm carries a 4 000-byte payload the
// store does not keep, so the 10 000 make about 42 MB of log, which a
// log that kept its records, or its blocks while pinned, would hold;
// the heap grows about 17 MB, against a bound of 26 MB once drained.
func TestDrainReleasesBrokerLog(t *testing.T) {
	const n, parts = 10_000, 2
	v, stream := testSetup(t)
	payload := strings.Repeat("p", 4000)
	b := broker.New()
	defer b.Close()
	topic, err := b.CreateTopic("alarms", parts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(b, "alarms", "g", v, h, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.Start()

	var c codec.FastCodec
	var buf []byte
	maxRecord := 0
	for i := range stream {
		a := stream[i]
		a.ID, a.Payload = n, payload
		buf, _ = c.Marshal(buf[:0], &a)
		maxRecord = max(maxRecord, len(buf)+len(a.DeviceMAC))
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := live()
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		prod := broker.NewProducer(topic)
		var buf []byte
		for i := 0; i < n && !stop.Load(); i++ {
			a := stream[i%len(stream)]
			a.ID = int64(i + 1) // the decoder drops id 0
			a.Payload = payload
			buf, _ = c.Marshal(buf[:0], &a)
			if _, _, err := prod.SendAt([]byte(a.DeviceMAC), buf, time.Time{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { stop.Store(true); wg.Wait() }()

	// The slack beside the tail: the store's rows, at most 1 KB an alarm
	// (about 0.35 KB), and 16 MB for the rest — the shards' batch and
	// decode buffers and, per partition, the spare and held lists at
	// sixteen 64 KB blocks each, the blocks holding the log start and
	// the end and a few header chunks (about 14 MB in all).
	const slack = n<<10 + 16<<20
	check := func(when string) {
		t.Helper()
		got := live() - base
		// The tail is read after the heap: appends during the collection
		// count in both.
		var tail int64
		for p := 0; p < parts; p++ {
			start, _, _ := topic.LogStart(p)
			end, _ := topic.LogSize(p)
			tail += (end - start) * int64(32+maxRecord)
		}
		if got > tail+slack {
			t.Fatalf("%s: the heap grew %d KB over an uncommitted tail of %d KB, bound %d KB", when, got>>10, tail>>10, (tail+slack)>>10)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for svc.Records() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d alarms verified", svc.Records(), n)
		}
		time.Sleep(20 * time.Millisecond)
		check("mid-drain")
	}
	wg.Wait()
	svc.Stop()
	for p := 0; p < parts; p++ {
		if start, _, _ := topic.LogStart(p); start == 0 {
			t.Fatalf("partition %d: the log start never rose", p)
		}
	}
	check("drained")
	t.Logf("%d alarms of %d B drained: the heap grew %d KB, against %d KB of log appended", n, maxRecord, (live()-base)>>10, n*maxRecord>>10)
}
