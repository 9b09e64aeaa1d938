package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/docstore"
)

// hotpathBroker preloads a single-partition topic with the alarms plus
// a sprinkle of undecodable and zero-ID records, which the drain must
// drop exactly as the copying reference does.
func hotpathBroker(t *testing.T, alarms []alarm.Alarm) *broker.Broker {
	t.Helper()
	b := broker.New()
	t.Cleanup(func() { b.Close() })
	topic, err := b.CreateTopic("alarms", 1)
	if err != nil {
		t.Fatal(err)
	}
	prod := broker.NewProducer(topic)
	var fc codec.FastCodec
	var buf []byte
	for i := range alarms {
		buf, err = fc.Marshal(buf[:0], &alarms[i])
		if err != nil {
			t.Fatal(err)
		}
		val := make([]byte, len(buf))
		copy(val, buf)
		if _, _, err := prod.SendAt([]byte(alarms[i].DeviceMAC), val, time.Time{}); err != nil {
			t.Fatal(err)
		}
		if i%17 == 0 {
			if _, _, err := prod.SendAt(nil, []byte(`{"truncated`), time.Time{}); err != nil {
				t.Fatal(err)
			}
		}
		if i%23 == 0 {
			if _, _, err := prod.SendAt(nil, []byte(`{"id":0,"type":"fire","status":"real"}`), time.Time{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b
}

func hotpathApp(t *testing.T, b *broker.Broker, group string, v *Verifier, n int) *ConsumerApp {
	t.Helper()
	cfg := DefaultConsumerConfig()
	cfg.MaxPerBatch = n
	app, err := newTestApp(b, "alarms", group, "c1", v, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	return app
}

// copyingReference is what the drain replaces: polls whose records
// FastCodec.Unmarshal copies out (every string a copy) before the
// lease goes, the ID != 0 filter, and a device set.
// It returns the decoded alarms, the device set, the positions after
// the drain, and how many records it read.
func copyingReference(t *testing.T, b *broker.Broker, n int) ([]alarm.Alarm, map[string]bool, map[int]int64, int) {
	t.Helper()
	topic, err := b.Topic("alarms")
	if err != nil {
		t.Fatal(err)
	}
	cons, err := broker.NewConsumer(b, "copy", topic, "c1")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	var alarms []alarm.Alarm
	devices := map[string]bool{}
	raw := 0
	for timeout := 10 * time.Millisecond; raw < n; timeout = 0 {
		recs, lease, err := cons.PollLeased(n-raw, timeout, nil)
		if err != nil || len(recs) == 0 {
			lease.Release()
			break
		}
		raw += len(recs)
		for _, r := range recs {
			var a alarm.Alarm
			if (codec.FastCodec{}).Unmarshal(r.Value, &a) != nil || a.ID == 0 {
				continue
			}
			alarms = append(alarms, a)
			devices[a.DeviceMAC] = true
		}
		lease.Release()
	}
	return alarms, devices, cons.PositionsInto(nil), raw
}

// TestFastDrainMatchesCopyingPath is the acceptance property of the
// zero-copy drain: over the same wire records — valid, corrupt, and
// zero-ID alike — the pooled scratch pipeline must produce the same
// decoded alarms, the same distinct-device set, and the same offsets
// as copying polls decoded by Unmarshal.
func TestFastDrainMatchesCopyingPath(t *testing.T) {
	_, alarms := testAlarms(600)
	verifier := fastVerifier(t, alarms[:200])
	bFast := hotpathBroker(t, alarms)
	bCopy := hotpathBroker(t, alarms)
	fast := hotpathApp(t, bFast, "fast", verifier, 2*len(alarms))

	fb := fast.Drain()
	fast.Decode(fb)
	if !fb.pooled {
		t.Fatal("the drain did not hand out a pooled batch")
	}
	refAlarms, refDevices, refOffsets, refRaw := copyingReference(t, bCopy, 2*len(alarms))

	if fb.Len() != len(refAlarms) {
		t.Fatalf("fast decoded %d alarms, copying %d", fb.Len(), len(refAlarms))
	}
	if fb.Len() != len(alarms) {
		t.Fatalf("decoded %d alarms, want %d (corrupt records must drop)", fb.Len(), len(alarms))
	}
	for i := range fb.Alarms {
		if !reflect.DeepEqual(fb.Alarms[i], refAlarms[i]) {
			t.Fatalf("alarm %d differs:\nfast: %+v\ncopy: %+v", i, fb.Alarms[i], refAlarms[i])
		}
	}
	fs := make(map[string]bool, len(fb.Devices))
	for _, mac := range fb.Devices {
		fs[mac] = true
	}
	if len(fs) != len(fb.Devices) {
		t.Fatalf("%d device entries for %d devices", len(fb.Devices), len(fs))
	}
	if !reflect.DeepEqual(fs, refDevices) {
		t.Fatalf("device sets differ: fast %d devices, copy %d", len(fs), len(refDevices))
	}
	if !reflect.DeepEqual(fb.Offsets, refOffsets) {
		t.Fatalf("offsets differ: fast %v, copy %v", fb.Offsets, refOffsets)
	}
	if len(fb.recs) != refRaw {
		t.Fatalf("raw count %d != copying %d", len(fb.recs), refRaw)
	}
	fast.ReleaseBatch(fb)
}

// TestPooledBatchLifecycle runs the full stage sequence over many
// pooled batches with both leak detectors armed: lease check mode
// poisons released payload copies, batch check mode poisons released
// batches, and the consumer's lease counter must return to zero — any
// use-after-release or leaked lease fails loudly (run under -race).
func TestPooledBatchLifecycle(t *testing.T) {
	_, alarms := testAlarms(800)
	verifier := fastVerifier(t, alarms[:300])
	b := hotpathBroker(t, alarms[300:])
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConsumerConfig()
	cfg.MaxPerBatch = 64
	app, err := newTestApp(b, "alarms", "pool", "c1", verifier, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	broker.SetLeaseCheck(true)
	defer broker.SetLeaseCheck(false)
	SetBatchCheck(true)
	defer SetBatchCheck(false)

	total := 0
	for i := 0; i < 40; i++ {
		batch := app.Drain()
		app.Decode(batch)
		if batch.Len() == 0 {
			app.ReleaseBatch(batch)
			break
		}
		if err := app.Classify(batch); err != nil {
			t.Fatal(err)
		}
		if err := app.Persist(batch); err != nil {
			t.Fatal(err)
		}
		if err := app.CommitBatch(batch); err != nil {
			t.Fatal(err)
		}
		total += batch.Len()
		app.ReleaseBatch(batch)
		app.ReleaseBatch(batch) // release is idempotent
	}
	if total != 500 {
		t.Fatalf("processed %d alarms, want 500", total)
	}
	if n := app.consumer.LeaseStats().Active; n != 0 {
		t.Fatalf("%d leases still active after all batches released", n)
	}
}

// TestReleasePoisonsBatch pins the loud-failure contract: under check
// mode, a released batch's alarms are overwritten with poison values,
// so any stage that wrongly retains a reference reads garbage instead
// of silently-recycled data.
func TestReleasePoisonsBatch(t *testing.T) {
	_, alarms := testAlarms(50)
	b := hotpathBroker(t, alarms)
	app := hotpathApp(t, b, "poison", fastVerifier(t, alarms), len(alarms)*2)

	SetBatchCheck(true)
	defer SetBatchCheck(false)

	batch := app.Drain()
	app.Decode(batch)
	if batch.Len() == 0 {
		t.Fatal("empty drain")
	}
	retained := batch.Alarms // the bug under test: outliving the release
	app.ReleaseBatch(batch)
	for i := range retained {
		if retained[i].ID != -1 || retained[i].DeviceMAC != poisonedField {
			t.Fatalf("alarm %d not poisoned after release: %+v", i, retained[i])
		}
	}
}

// TestPayloadViewStaysInTheBatch: a decoded alarm's Payload is a view of
// its leased record — under lease check mode a header kept past the
// release reads poison — so nothing copies an alarm out of the batch's
// alarm slots: the distinct-device entries are the alarms' addresses,
// each once.
func TestPayloadViewStaysInTheBatch(t *testing.T) {
	_, alarms := testAlarms(60)
	for i := range alarms {
		alarms[i].Payload = fmt.Sprintf("payload-of-%d", alarms[i].ID)
	}
	b := hotpathBroker(t, alarms)
	app := hotpathApp(t, b, "view", fastVerifier(t, alarms), len(alarms)*2)

	broker.SetLeaseCheck(true)
	defer broker.SetLeaseCheck(false)

	batch := app.Drain()
	app.Decode(batch)
	if batch.Len() != len(alarms) {
		t.Fatalf("decoded %d alarms, want %d", batch.Len(), len(alarms))
	}
	for i := range batch.Alarms {
		if batch.Alarms[i].Payload != alarms[i].Payload {
			t.Fatalf("alarm %d: payload %q, produced %q", i, batch.Alarms[i].Payload, alarms[i].Payload)
		}
	}
	addrs := make(map[string]bool, len(batch.Alarms))
	for i := range batch.Alarms {
		addrs[batch.Alarms[i].DeviceMAC] = true
	}
	seen := make(map[string]bool, len(batch.Devices))
	for i, mac := range batch.Devices {
		if !addrs[mac] || seen[mac] {
			t.Fatalf("device entry %d = %q: not one of the batch's addresses, once", i, mac)
		}
		seen[mac] = true
	}
	if len(seen) != len(addrs) {
		t.Fatalf("%d device entries for %d addresses", len(seen), len(addrs))
	}
	view := batch.Alarms[0].Payload // the bug the blanking prevents: a header outliving the lease
	app.ReleaseBatch(batch)
	if want := strings.Repeat("\xdb", len(alarms[0].Payload)); view != want {
		t.Fatalf("a payload kept past the release reads %q: not a view of the leased record", view)
	}
}

// TestDeviceHistogramsMatchesSingle: the batched per-device histogram
// query must return, for every device, exactly what the single-device
// query returns — it is the same computation in one round-trip.
func TestDeviceHistogramsMatchesSingle(t *testing.T) {
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	macs := []string{"mac-a", "mac-b", "mac-c", "mac-absent"}
	base := time.Date(2016, 2, 11, 10, 0, 0, 0, time.UTC)
	for mi, mac := range macs[:3] {
		h.RecordBatch(historyAlarms(40+mi*13, mac))
	}
	since := base.Add(-time.Hour)
	bucket := 30 * time.Minute

	batched, err := h.DeviceHistograms(macs, since, bucket)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(macs) {
		t.Fatalf("%d histograms for %d devices", len(batched), len(macs))
	}
	for i, mac := range macs {
		single, err := h.DeviceHistogram(mac, since, bucket)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched[i], single) {
			t.Fatalf("%s: batched %+v != single %+v", mac, batched[i], single)
		}
	}
	if got, err := h.DeviceHistograms(nil, since, bucket); err != nil || got != nil {
		t.Fatalf("empty query: got %v, %v", got, err)
	}
}

// BenchmarkDecodePath measures the per-batch decode cost over one
// 512-record batch; allocs/op is the number the zero-copy path exists
// to keep at zero.
func BenchmarkDecodePath(b *testing.B) {
	_, alarms := testAlarms(512)
	bk := broker.New()
	defer bk.Close()
	topic, err := bk.CreateTopic("alarms", 1)
	if err != nil {
		b.Fatal(err)
	}
	prod := NewProducerApp(topic, codec.FastCodec{})
	if _, err := prod.Replay(alarms, 0); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConsumerConfig()
	cfg.MaxPerBatch = len(alarms)
	app, err := newTestApp(bk, "alarms", "bench-decode", "c1", fastVerifier(b, alarms[:100]), nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	batch := app.Drain()
	app.Decode(batch)
	if batch.Len() != len(alarms) {
		b.Fatalf("decoded %d, want %d", batch.Len(), len(alarms))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Alarms = batch.Alarms[:0]
		batch.Devices = batch.Devices[:0]
		app.Decode(batch)
	}
}
