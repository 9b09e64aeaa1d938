package core

import (
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/docstore"
	"alarmverify/internal/metrics"
)

// preload sends alarms into a fresh broker topic with enqueue-time
// record timestamps (the live-stream shape loadgen produces, as
// opposed to Replay's synthetic historic timestamps).
func preloadLive(t *testing.T, n int) (*broker.Broker, int) {
	t.Helper()
	_, alarms := testAlarms(n)
	b := broker.New()
	topic, err := b.CreateTopic("alarms", 4)
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
	return b, len(alarms)
}

// TestDrainTakesWhatIsQueuedUpToMax pins the drain's batch sizing: a
// drain returns what is queued, at most MaxPerBatch records, so a short
// queue is one batch, a backlog splits into full batches and a
// remainder, and an idle drain comes back empty.
func TestDrainTakesWhatIsQueuedUpToMax(t *testing.T) {
	const max = 64
	_, alarms := testAlarms(2*max + 8)
	v := fastVerifier(t, alarms)
	b := broker.New()
	defer b.Close()
	topic, err := b.CreateTopic("alarms", 4)
	if err != nil {
		t.Fatal(err)
	}
	prod := broker.NewProducer(topic)
	send := func(as []alarm.Alarm) {
		for i := range as {
			val, err := codec.FastCodec{}.Marshal(nil, &as[i])
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := prod.SendAt([]byte(as[i].DeviceMAC), val, time.Time{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := DefaultConsumerConfig()
	cfg.MaxPerBatch = max
	app, err := newTestApp(b, "alarms", "bound", "c1", v, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	drain := func() int {
		batch := app.Drain()
		app.Decode(batch)
		n := batch.Len()
		if n != len(batch.recs) {
			t.Fatalf("decoded %d of %d records", n, len(batch.recs))
		}
		app.ReleaseBatch(batch)
		return n
	}

	send(alarms[:3])
	if got := drain(); got != 3 {
		t.Fatalf("drain over 3 queued records took %d, want one batch of 3", got)
	}
	send(alarms[3 : 3+2*max+5])
	for i, want := range []int{max, max, 5, 0} {
		if got := drain(); got != want {
			t.Fatalf("drain %d over a backlog of 2×%d+5 took %d records, want %d", i, max, got, want)
		}
	}
}

func TestPipelineMetricsRecordStagesAndE2E(t *testing.T) {
	b, n := preloadLive(t, 1500)
	defer b.Close()
	_, train := testAlarms(800)
	v := fastVerifier(t, train)
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}

	m := metrics.NewPipeline()
	cfg := DefaultConsumerConfig()
	cfg.Metrics = m
	cfg.MaxPerBatch = 500
	app, err := newTestApp(b, "alarms", "met", "c1", v, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	processed := 0
	batches := 0
	for processed < n {
		batch := app.Drain()
		app.Decode(batch)
		if batch.Len() == 0 {
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
		processed += batch.Len()
		batches++
	}
	if processed != n {
		t.Fatalf("processed %d of %d", processed, n)
	}

	ps := m.Snapshot()
	for _, st := range []metrics.Stage{metrics.StageDecode, metrics.StageClassify, metrics.StagePersist, metrics.StageCommit} {
		if got := ps.Stages[st].N; got != uint64(batches) {
			t.Errorf("stage %s recorded %d observations, want %d batches", st, got, batches)
		}
	}
	e2e := ps.Stages[metrics.StageE2E]
	if got := e2e.N; got != uint64(n) {
		t.Errorf("e2e recorded %d observations, want %d records", got, n)
	}
	// Records were enqueued moments ago: e2e must be small but
	// positive, far below a minute.
	if p99 := e2e.Quantile(0.99); p99 <= 0 || p99 > time.Minute {
		t.Errorf("e2e p99 = %s, implausible", p99)
	}
	if ps.ShedRecords != 0 {
		t.Errorf("shed %d records with shedding off", ps.ShedRecords)
	}
}

func TestMarkShedCountsAndSkipsE2E(t *testing.T) {
	b, _ := preloadLive(t, 600)
	defer b.Close()
	_, train := testAlarms(800)
	v := fastVerifier(t, train)
	m := metrics.NewPipeline()
	cfg := DefaultConsumerConfig()
	cfg.Metrics = m
	cfg.MaxPerBatch = 600
	app, err := newTestApp(b, "alarms", "shed", "c1", v, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	batch := app.Drain()
	app.Decode(batch)
	if batch.Len() == 0 {
		t.Fatal("empty drain")
	}
	app.MarkShed(batch)
	if !batch.Shed {
		t.Fatal("batch not flagged")
	}
	if got := m.Snapshot().ShedRecords; got != int64(batch.Len()) {
		t.Fatalf("shed counter %d, want %d", got, batch.Len())
	}
	if err := app.CommitBatch(batch); err != nil {
		t.Fatal(err)
	}
	ps := m.Snapshot()
	if got := ps.Stages[metrics.StageE2E].N; got != 0 {
		t.Fatalf("shed batch recorded %d e2e observations, want 0", got)
	}
	if got := ps.Stages[metrics.StageCommit].N; got != 1 {
		t.Fatalf("commit histogram %d, want 1 (shed batches still commit)", got)
	}
}
