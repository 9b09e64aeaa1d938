package core

import (
	"sync"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/docstore"
	"alarmverify/internal/metrics"
)

// ComponentTimes is the Figure 12 breakdown: where the consumer's
// batch time goes. In the paper, machine learning dominates (~80 %),
// the streaming component (deserialization + distinct addresses)
// takes most of the rest, and the history query is insignificant.
type ComponentTimes struct {
	Deserialize time.Duration
	Streaming   time.Duration // distinct-device extraction and bookkeeping
	History     time.Duration // per-device histogram queries
	ML          time.Duration
	// Ingest is the alarm-persistence write path. The paper's
	// consumer breakdown does not include it (alarms reached MongoDB
	// through a separate ingestion path), so Total excludes it; it is
	// still measured for completeness.
	Ingest time.Duration
}

// Total sums the verification-path components (excluding Ingest, as
// in the paper's Figure 12).
func (c ComponentTimes) Total() time.Duration {
	return c.Deserialize + c.Streaming + c.History + c.ML
}

// Add accumulates another breakdown (e.g. a batch's, or another
// shard's) into c.
func (c *ComponentTimes) Add(o ComponentTimes) {
	c.Deserialize += o.Deserialize
	c.Streaming += o.Streaming
	c.History += o.History
	c.ML += o.ML
	c.Ingest += o.Ingest
}

// ConsumerConfig tunes the consumer application.
type ConsumerConfig struct {
	// Workers is ignored.
	//
	// Deprecated: ignored. Serving has one consume path and no
	// executor pool; the field stays only because the benchmark
	// harness still assigns it, and goes once that assignment does.
	Workers int
	// ClassifyWorkers is ignored.
	//
	// Deprecated: ignored. Classify verifies its chunks inline on the
	// classify goroutine; the field stays only because the benchmark
	// harness still assigns it, and goes once that assignment does.
	ClassifyWorkers int
	// ClassifyBatch is the micro-chunk size of the vectorized
	// classify path: Classify verifies this many alarms per
	// ml.SparseModel call out of one pooled batch of sparse rows.
	// 0 means the 256 default; 1 reproduces the per-alarm baseline.
	ClassifyBatch int
	// HistogramSince and HistogramBucket shape the per-device history
	// query (§4.1); zero values default to 30 days / 1 day buckets.
	HistogramSince  time.Duration
	HistogramBucket time.Duration
	// MaxPerBatch bounds records drained per micro-batch; 0 leaves the
	// drain unbounded (it takes everything queued).
	MaxPerBatch int
	// PollTimeout bounds how long a drain waits for the first record
	// when the topic is idle; zero means 10 ms. An append ends the
	// wait at once, so this is only how often an idle intake gets to
	// look at anything else (stop, rebalance), not a latency.
	PollTimeout time.Duration
	// Metrics, when set, receives per-stage durations
	// (decode/classify/persist/commit), per-record end-to-end
	// latencies and the shed counter. One Pipeline may be shared by
	// every shard of a service — recording is lock-free.
	Metrics *metrics.Pipeline
}

// DefaultConsumerConfig returns the serving configuration: 256-alarm
// classify chunks and a 30-day, 1-day-bucket device history.
func DefaultConsumerConfig() ConsumerConfig {
	return ConsumerConfig{
		ClassifyBatch:   256,
		HistogramSince:  30 * 24 * time.Hour,
		HistogramBucket: 24 * time.Hour,
	}
}

// ConsumerApp is the §5.5 Consumer application: it drains alarm
// batches from the broker, verifies every alarm in real time, and
// performs the historic per-device analysis.
type ConsumerApp struct {
	cfg      ConsumerConfig
	verifier *Verifier
	history  *History
	consumer broker.GroupConsumer

	// sc is the decode scratch (string interner), used only by the
	// single intake goroutine; batchPool recycles Batch scratch
	// between ReleaseBatch and the next Drain.
	sc        *codec.Scratch
	batchPool sync.Pool
	// hist is Persist's histogram-sweep scratch, one per app: only
	// Persist touches it, and an app runs one persist goroutine.
	hist histScratch

	mu       sync.Mutex
	times    ComponentTimes
	verified []alarm.Verification
	batches  int
	records  int
}

// NewConsumerApp wires a consumer onto an in-process broker topic.
func NewConsumerApp(b *broker.Broker, topicName, group, id string,
	verifier *Verifier, history *History, cfg ConsumerConfig) (*ConsumerApp, error) {
	topic, err := b.Topic(topicName)
	if err != nil {
		return nil, err
	}
	cons, err := broker.NewConsumer(b, group, topic, id)
	if err != nil {
		return nil, err
	}
	return NewConsumerAppFor(cons, topic.Partitions(), verifier, history, cfg), nil
}

// NewConsumerAppFor wires the consumer application onto an
// already-joined group consumer — in-process or the network client —
// so the same pipeline runs against a local broker or a remote
// replicated one. The int is the topic's partition count; the drain
// keeps no per-partition layout, so it is unused.
func NewConsumerAppFor(cons broker.GroupConsumer, _ int,
	verifier *Verifier, history *History, cfg ConsumerConfig) *ConsumerApp {
	if cfg.PollTimeout <= 0 {
		cfg.PollTimeout = 10 * time.Millisecond
	}
	if cfg.HistogramSince <= 0 {
		cfg.HistogramSince = 30 * 24 * time.Hour
	}
	if cfg.HistogramBucket <= 0 {
		cfg.HistogramBucket = 24 * time.Hour
	}
	if cfg.ClassifyBatch <= 0 {
		cfg.ClassifyBatch = 256
	}
	app := &ConsumerApp{
		cfg:      cfg,
		verifier: verifier,
		history:  history,
		consumer: cons,
		sc:       codec.NewScratch(),
	}
	// Persist's sweep scratch, sized like a pooled batch for a full drain.
	n := cfg.MaxPerBatch
	app.hist = histScratch{macs: make([]string, 0, n), conds: make([]docstore.Cond, 0, 2*n),
		filters: make([][]docstore.Cond, 0, n), out: make([][]HistogramBucket, 0, n)}
	return app
}

// Close leaves the consumer group, releasing partitions to surviving
// members.
func (c *ConsumerApp) Close() { c.consumer.Close() }

// ProcessBatches synchronously runs n micro-batches through the
// serving stages — Drain, Decode, Classify, Persist, CommitBatch,
// ReleaseBatch — and returns the number of alarms verified. Each
// batch's offsets are committed only after it has fully persisted,
// preserving the exactly-once contract across consumer restarts.
func (c *ConsumerApp) ProcessBatches(n int) (int, error) {
	total := 0
	for i := 0; i < n; i++ {
		b := c.Drain()
		c.Decode(b)
		err := c.Classify(b)
		if err == nil {
			err = c.Persist(b)
		}
		if err == nil {
			err = c.CommitBatch(b)
		}
		if err != nil {
			c.ReleaseBatch(b)
			return total, err
		}
		total += b.Len()
		c.ReleaseBatch(b)
	}
	return total, nil
}

// Times returns the accumulated component breakdown (Figure 12).
func (c *ConsumerApp) Times() ComponentTimes {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.times
}

// Verified returns all verifications produced so far.
func (c *ConsumerApp) Verified() []alarm.Verification {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]alarm.Verification, len(c.verified))
	copy(out, c.verified)
	return out
}

// Records returns the total alarms processed.
func (c *ConsumerApp) Records() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.records
}

// Batches returns the number of micro-batches fully processed.
func (c *ConsumerApp) Batches() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batches
}
