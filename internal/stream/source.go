package stream

import (
	"time"

	"alarmverify/internal/broker"
)

// BrokerSource adapts a broker consumer into a DStream source using
// the Direct-DStream mapping: each broker partition becomes one RDD
// partition, so the broker's partition count directly bounds the
// engine's parallelism — the coupling behind the paper's §5.5.2
// observation that an unpartitioned stream is processed serially.
type BrokerSource struct {
	consumer   broker.GroupConsumer
	partitions int
	// MaxPerBatch bounds how many records one micro-batch drains
	// (backpressure); 0 means unlimited.
	MaxPerBatch int
	// PollTimeout bounds how long a batch waits, parked in the
	// consumer, for the first record: an append ends the wait at once,
	// so this is only how often an idle caller gets to look at anything
	// else (stop, rebalance), not a latency.
	PollTimeout time.Duration
}

// NewBrokerSource wraps an in-process consumer for use as a DStream
// source.
func NewBrokerSource(c *broker.Consumer, t *broker.Topic) *BrokerSource {
	return NewGroupSource(c, t.Partitions())
}

// NewGroupSource wraps any GroupConsumer — in-process or the network
// client — for use as a DStream source. partitions is the topic's
// partition count (it shapes the RDD layout; see BrokerSource).
func NewGroupSource(c broker.GroupConsumer, partitions int) *BrokerSource {
	return &BrokerSource{
		consumer:    c,
		partitions:  partitions,
		PollTimeout: 10 * time.Millisecond,
	}
}

// Stream builds the DStream of raw records on ctx.
func (s *BrokerSource) Stream(ctx *Context) *DStream[broker.Record] {
	return NewDStream(ctx, func(time.Time) *RDD[broker.Record] {
		return s.Batch()
	})
}

// Batch drains available records and groups them by broker partition
// into RDD partitions. Only the first poll of a batch waits — until a
// record arrives, for at most PollTimeout; the rest take what is
// already there, so a batch is whatever accumulated while the caller
// was busy, and one record when it was not.
func (s *BrokerSource) Batch() *RDD[broker.Record] {
	max := s.MaxPerBatch
	if max <= 0 {
		max = 1 << 20
	}
	parts := make([][]broker.Record, s.partitions)
	total := 0
	timeout := s.PollTimeout
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

// DrainLeased is Batch's zero-copy twin: it drains one micro-batch by
// appending records into the caller's scratch slice (reusing its
// capacity) and borrowing their payload bytes from the broker under
// leases instead of copying them out. The accumulated leases append to
// the caller's lease scratch; every one must be released once the
// batch's records are fully processed — after that, the record values
// must not be touched. Record count and waiting match Batch exactly:
// only the first poll parks (woken by the first record, for at most
// PollTimeout), the rest drain what is immediately available, bounded
// by MaxPerBatch. A drain that found nothing allocates nothing and
// adds no lease.
func (s *BrokerSource) DrainLeased(dst []broker.Record, leases []*broker.Lease) ([]broker.Record, []*broker.Lease) {
	max := s.MaxPerBatch
	if max <= 0 {
		max = 1 << 20
	}
	timeout := s.PollTimeout
	for len(dst) < max {
		out, lease, err := s.consumer.PollLeased(max-len(dst), timeout, dst)
		got := len(out) - len(dst)
		dst = out
		if got > 0 {
			leases = append(leases, lease)
		} else {
			// An empty poll's lease guards nothing (the consumers hand
			// out a shared released one); release it now so idle polls
			// don't inflate the leak detector.
			lease.Release()
		}
		if err != nil || got == 0 {
			break
		}
		timeout = 0
	}
	return dst, leases
}

// Commit commits the consumer's progress; call it after a batch's
// actions have completed to preserve exactly-once processing.
func (s *BrokerSource) Commit() error { return s.consumer.Commit() }
