package serve

import (
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
	"alarmverify/internal/metrics"
)

// liveBroker preloads a topic stamping records with enqueue-time
// timestamps, the shape the loadgen sinks produce.
func liveBroker(t testing.TB, alarms []alarm.Alarm, partitions int) *broker.Broker {
	t.Helper()
	b := broker.New()
	topic, err := b.CreateTopic("alarms", partitions)
	if err != nil {
		t.Fatal(err)
	}
	prod := broker.NewProducer(topic)
	var c codec.FastCodec
	var buf []byte
	for i := range alarms {
		buf, err = c.Marshal(buf[:0], &alarms[i])
		if err != nil {
			t.Fatal(err)
		}
		val := make([]byte, len(buf))
		copy(val, buf)
		if _, _, err := prod.SendAt([]byte(alarms[i].DeviceMAC), val, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestLoadSheddingBoundsBacklog floods one slow shard far past its
// shed bound: some records must be dropped (counted, not silently),
// the rest processed, and — critically — every record's offset
// committed, shed or not: shedding drains the backlog rather than
// hiding it for redelivery.
func TestLoadSheddingBoundsBacklog(t *testing.T) {
	v, stream := testSetup(t)
	total := 4000
	if len(stream) < total {
		total = len(stream)
	}
	b := liveBroker(t, stream[:total], 4)
	defer b.Close()
	h, err := core.NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	// A simulated remote-docstore round-trip makes persist the
	// bottleneck, so the backlog holds while the shard drains.
	h.SetSimulatedRTT(2 * time.Millisecond)

	m := metrics.NewPipeline()
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.ShedQueue = 512
	cfg.Consumer.MaxPerBatch = 128
	cfg.Consumer.PollTimeout = 2 * time.Millisecond
	cfg.Consumer.Metrics = m
	svc, err := New(b, "alarms", "shed", v, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.Start()

	waitFor(t, 60*time.Second, "backlog drained", func() bool {
		lag, err := svc.Lag()
		return err == nil && lag == 0
	})
	svc.Stop()
	if err := svc.Err(); err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.ShedRecords == 0 {
		t.Fatal("nothing shed despite a backlog 8× the bound")
	}
	if st.Records == 0 {
		t.Fatal("everything shed: the pipeline did no work at all")
	}
	if got := st.Records + int(st.ShedRecords); got != total {
		t.Fatalf("processed %d + shed %d = %d, want %d (no record unaccounted)",
			st.Records, st.ShedRecords, got, total)
	}
	if got := m.ShedRecords(); got != st.ShedRecords {
		t.Fatalf("metrics shed %d != stats shed %d", got, st.ShedRecords)
	}
	committed, err := svc.Committed()
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, off := range committed {
		sum += off
	}
	if sum != int64(total) {
		t.Fatalf("committed %d offsets, want %d: shed batches must still commit", sum, total)
	}
	// Shed records are dropped, not verified.
	if got := len(svc.Verified()); got != st.Records {
		t.Fatalf("verifications %d != processed %d", got, st.Records)
	}
}

// TestShedDisabledProcessesEverything is the control: without a
// bound, the same flood is fully processed and nothing is counted
// shed.
func TestShedDisabledProcessesEverything(t *testing.T) {
	v, stream := testSetup(t)
	total := 1500
	if len(stream) < total {
		total = len(stream)
	}
	b := liveBroker(t, stream[:total], 4)
	defer b.Close()
	h, err := core.NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2)
	cfg.ShedQueue = 0
	svc, err := New(b, "alarms", "noshed", v, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.Start()
	waitFor(t, 60*time.Second, "all records verified", func() bool {
		return svc.Records() == total
	})
	svc.Stop()
	if st := svc.Stats(); st.ShedRecords != 0 {
		t.Fatalf("shed %d records with shedding disabled", st.ShedRecords)
	}
}
