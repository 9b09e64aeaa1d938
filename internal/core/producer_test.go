package core

import (
	"testing"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
)

// TestReplayEnqueueTimestamps pins the timestamp modes: by default a
// replayed record carries the alarm's synthetic event time (the
// historic-replay semantics the experiments rely on), while
// EnqueueTimestamps stamps broker append time so live-serving e2e
// latency starts at the enqueue, not years in the past.
func TestReplayEnqueueTimestamps(t *testing.T) {
	_, alarms := testAlarms(64)
	for _, enqueue := range []bool{false, true} {
		b := broker.New()
		topic, err := b.CreateTopic("alarms", 2)
		if err != nil {
			t.Fatal(err)
		}
		prod := NewProducerApp(topic, codec.FastCodec{})
		prod.Threads = 2
		prod.EnqueueTimestamps = enqueue
		before := time.Now()
		if _, err := prod.Replay(alarms, 0); err != nil {
			t.Fatal(err)
		}
		cons, err := broker.NewConsumer(b, "ts-test", topic, "c1")
		if err != nil {
			t.Fatal(err)
		}
		recs, lease, err := cons.PollLeased(len(alarms), time.Second, nil)
		if err != nil || len(recs) == 0 {
			t.Fatalf("poll: %d records, err %v", len(recs), err)
		}
		lease.Release() // only the timestamps are read below
		for _, r := range recs {
			recent := !r.Timestamp.Before(before)
			if enqueue && !recent {
				t.Fatalf("EnqueueTimestamps: record stamped %s, want >= replay start", r.Timestamp)
			}
			if !enqueue && recent {
				t.Fatalf("default replay: record stamped %s, want the synthetic event time", r.Timestamp)
			}
		}
		cons.Close()
		b.Close()
	}
}
