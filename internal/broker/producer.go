package broker

import (
	"sync"
	"sync/atomic"
	"time"
)

// producerIDs allocates unique producer identities for idempotence.
var producerIDs atomic.Int64

// RecordSender is the producer-side contract the ingest applications
// (core.ProducerApp, loadgen.BrokerSink) write to: deliver one keyed
// record, return where it landed. *Producer implements it against the
// in-process broker; netbroker's Producer implements it over the wire
// with quorum-acknowledged appends — the replay and load-generation
// paths run unmodified against either deployment.
type RecordSender interface {
	// SendAt appends one record with an explicit timestamp (zero means
	// "now"), returning its partition and offset.
	SendAt(key, value []byte, ts time.Time) (int, int64, error)
}

// Producer appends keyed records to a topic. It is safe for
// concurrent use; the paper's §5.5.2 throughput experiments run
// multiple producer threads over a single Producer.
//
// Each Producer has a unique identity and per-partition sequence
// numbers, so retried batches are deduplicated by the partition log —
// the idempotent half of the exactly-once contract.
//
// Sequence allocation and the log append happen under one
// per-partition lock: if a sequence could be allocated under a lock
// but appended outside it, two sender threads could reach the
// partition out of order and the log would mistake the
// lower-sequence record for a retry duplicate — acknowledging it
// while silently dropping it. (Kafka's idempotent producer serializes
// in-flight batches per partition for the same reason.)
type Producer struct {
	topic *Topic
	id    int64

	mu sync.Mutex
	rr int // round-robin cursor for key-less records

	// parts[i] guards seq allocation + append for partition i.
	parts []struct {
		sync.Mutex
		seq int64 // next sequence number
	}
}

// NewProducer creates a producer for topic t.
func NewProducer(t *Topic) *Producer {
	return &Producer{
		topic: t,
		id:    producerIDs.Add(1),
		parts: make([]struct {
			sync.Mutex
			seq int64
		}, t.Partitions()),
	}
}

// Send appends one record and returns its partition and offset.
func (p *Producer) Send(key, value []byte) (partition int, offset int64, err error) {
	return p.SendAt(key, value, time.Time{})
}

// pickPartition routes a key (round-robin for key-less records).
func (p *Producer) pickPartition(key []byte) int {
	part := p.topic.partitionFor(key)
	if part < 0 {
		p.mu.Lock()
		part = p.rr
		p.rr = (p.rr + 1) % p.topic.Partitions()
		p.mu.Unlock()
	}
	return part
}

// SendAt is Send with an explicit record timestamp (zero means "now").
func (p *Producer) SendAt(key, value []byte, ts time.Time) (int, int64, error) {
	part := p.pickPartition(key)
	pp := &p.parts[part]
	pp.Lock()
	seq := pp.seq
	pp.seq++
	base, err := p.topic.partitions[part].append(p.id, seq, []Record{{
		Key:       key,
		Value:     value,
		Timestamp: ts,
	}})
	pp.Unlock()
	if err != nil {
		return 0, 0, err
	}
	return part, base, nil
}
