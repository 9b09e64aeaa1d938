package experiments

import (
	"errors"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
)

// preload returns a broker whose "alarms" topic, of partitions
// partitions, holds alarms, sent through c as fast as threads producer
// goroutines go, and the producer's stats. The caller closes the
// broker.
func preload(alarms []alarm.Alarm, partitions, threads int, c codec.Codec) (*broker.Broker, core.ReplayStats, error) {
	b := broker.New()
	topic, err := b.CreateTopic("alarms", partitions)
	if err != nil {
		b.Close()
		return nil, core.ReplayStats{}, err
	}
	prod := core.NewProducerApp(topic, c)
	prod.Threads = threads
	stats, err := prod.Replay(alarms, 0)
	if err != nil {
		b.Close()
		return nil, stats, err
	}
	return b, stats, nil
}

// replay is the paper's pre-optimization consumer, kept for the
// experiments that measure it: the §5.5.2 partitioning ladder
// (EndToEnd) and the §6.2 cache ablation (AblationCache). It drains a
// micro-batch by a leased poll into rdd partitions, one per broker
// partition (rdd.go); decodes it with its codec, cached or not; extracts
// the window's devices with distinct; and classifies alarm by alarm on
// an executor pool. The filled core.Batch goes to
// ConsumerApp.Persist for history and accounting, as a serving batch
// does, and the consumer's progress is committed after it.
type replay struct {
	app      *core.ConsumerApp
	src      *brokerSource
	pool     *pool
	verifier *core.Verifier
	codec    codec.Codec
	cache    bool
}

// newReplay joins group on b's "alarms" topic. workers sizes the
// executor pool (0: one per CPU); h may be nil.
func newReplay(b *broker.Broker, group string, v *core.Verifier, h *core.History,
	cdc codec.Codec, workers int, cache bool) (*replay, error) {
	topic, err := b.Topic("alarms")
	if err != nil {
		return nil, err
	}
	cons, err := broker.NewConsumer(b, group, topic, "c1")
	if err != nil {
		return nil, err
	}
	return &replay{
		app:      core.NewConsumerAppFor(cons, topic.Partitions(), v, h, core.DefaultConsumerConfig()),
		src:      newBrokerSource(cons, topic),
		pool:     newPool(workers),
		verifier: v,
		codec:    cdc,
		cache:    cache,
	}, nil
}

func (r *replay) close() {
	r.app.Close()
	r.pool.close()
}

// batch replays one micro-batch and returns the alarms it verified. A
// batch whose poll failed is not processed and nothing is committed.
func (r *replay) batch() (int, error) {
	raw, lease, err := r.src.batch()
	if err != nil {
		return 0, err
	}
	defer lease.Release()
	b := &core.Batch{}
	start := time.Now()
	decoded := filterRDD(mapRDD(raw, func(rec broker.Record) alarm.Alarm {
		var a alarm.Alarm
		_ = r.codec.Unmarshal(rec.Value, &a) // a record that fails stays a zero alarm: filtered
		return a
	}), func(a alarm.Alarm) bool { return a.ID != 0 })
	if r.cache {
		decoded = decoded.cache()
	}
	b.Alarms = decoded.collect(r.pool)
	b.Times.Deserialize = time.Since(start)

	// The second use of the decoded stream: uncached, it decodes every
	// record again.
	start = time.Now()
	b.Devices = distinct(decoded, func(a alarm.Alarm) string { return a.DeviceMAC }, r.pool)
	b.Times.Streaming = time.Since(start)

	start = time.Now()
	n := len(b.Alarms)
	b.Verified = make([]alarm.Verification, n)
	runs := min(n, r.pool.workers)
	errs := make([]error, runs)
	r.pool.run(runs, func(w int) {
		for i := w * n / runs; i < (w+1)*n/runs && errs[w] == nil; i++ {
			errs[w] = r.verifier.VerifyBatchInto(b.Alarms[i:i+1], b.Verified[i:i+1])
		}
	})
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	b.Times.ML = time.Since(start)

	if err := r.app.Persist(b); err != nil {
		return 0, err
	}
	return n, r.src.commit()
}

// Replay drains what b's "alarms" topic holds as one micro-batch
// through the replay consumer — cached decode, workers executor
// threads (0: one per CPU) — persisting into h when it is not nil. It
// returns the alarms verified and the component breakdown.
func Replay(b *broker.Broker, v *core.Verifier, h *core.History, cdc codec.Codec, workers int) (int, core.ComponentTimes, error) {
	r, err := newReplay(b, "replay", v, h, cdc, workers, true)
	if err != nil {
		return 0, core.ComponentTimes{}, err
	}
	defer r.close()
	n, err := r.batch()
	return n, r.app.Times(), err
}
