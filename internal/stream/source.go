package stream

import (
	"time"

	"alarmverify/internal/broker"
)

// BrokerSource turns a broker consumer's copying polls into one RDD
// per micro-batch, using the Direct-DStream mapping: each broker
// partition becomes one RDD partition, so the broker's partition count
// directly bounds the engine's parallelism — the coupling behind the
// paper's §5.5.2 observation that an unpartitioned stream is processed
// serially.
type BrokerSource struct {
	consumer   *broker.Consumer
	partitions int
	// MaxPerBatch bounds how many records one micro-batch drains
	// (backpressure); 0 means unlimited.
	MaxPerBatch int
}

// pollTimeout bounds how long a batch waits, parked in the consumer,
// for its first record; an append ends the wait at once.
const pollTimeout = 10 * time.Millisecond

// NewBrokerSource wraps an in-process consumer of topic t; the topic's
// partition count shapes the RDD layout (see BrokerSource).
func NewBrokerSource(c *broker.Consumer, t *broker.Topic) *BrokerSource {
	return &BrokerSource{consumer: c, partitions: t.Partitions()}
}

// Batch drains available records and groups them by broker partition
// into RDD partitions. Only the first poll of a batch waits — until a
// record arrives, for at most pollTimeout; the rest take what is
// already there, so a batch is whatever accumulated while the caller
// was busy, and one record when it was not.
func (s *BrokerSource) Batch() *RDD[broker.Record] {
	max := s.MaxPerBatch
	if max <= 0 {
		max = 1 << 20
	}
	parts := make([][]broker.Record, s.partitions)
	total := 0
	timeout := pollTimeout
	for total < max {
		recs, err := s.consumer.Poll(max-total, timeout)
		if err != nil || len(recs) == 0 {
			break
		}
		for _, r := range recs {
			parts[r.Partition] = append(parts[r.Partition], r)
		}
		total += len(recs)
		timeout = 0
	}
	return FromPartitions(parts)
}

// Commit commits the consumer's progress; call it after a batch's
// actions have completed to preserve exactly-once processing.
func (s *BrokerSource) Commit() error { return s.consumer.Commit() }
