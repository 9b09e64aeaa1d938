package core

import (
	"sync"
	"sync/atomic"
	"time"

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
	// ml.SparseModel call out of the app's one batch of sparse rows.
	// 0 means the 256 default; 1 reproduces the per-alarm baseline.
	ClassifyBatch int
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
// classify chunks.
func DefaultConsumerConfig() ConsumerConfig {
	return ConsumerConfig{ClassifyBatch: 256}
}

// histogramSince and histogramBucket shape the per-device history
// query Persist runs (§4.1): the last 30 days in 1-day buckets.
const (
	histogramSince  = 30 * 24 * time.Hour
	histogramBucket = 24 * time.Hour
)

// ConsumerApp is the §5.5 Consumer application: it drains alarm
// batches from the broker, verifies every alarm in real time, and
// performs the historic per-device analysis.
type ConsumerApp struct {
	cfg      ConsumerConfig
	verifier *Verifier
	history  *History
	consumer broker.GroupConsumer

	// Each stage owns its scratch, kept for the app's life: a GC does
	// not take it back as it would a sync.Pool's. sc (the string
	// interner) and seen (the distinct-device set) are Decode's, on the
	// single intake goroutine; free holds released batches between
	// ReleaseBatch and the next Drain; class is Classify's sparse rows
	// and probabilities; rows (the row batch alarms are stored through)
	// and hist (the histogram sweep) are Persist's, and an app runs one
	// persist goroutine.
	sc    *codec.Scratch
	seen  map[string]struct{}
	free  batchList
	class batchScratch
	rows  *docstore.Rows
	hist  histScratch

	mu      sync.Mutex
	times   ComponentTimes
	batches atomic.Int64
	records atomic.Int64
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
	if cfg.ClassifyBatch <= 0 {
		cfg.ClassifyBatch = 256
	}
	n := cfg.MaxPerBatch
	app := &ConsumerApp{
		cfg:      cfg,
		verifier: verifier,
		history:  history,
		consumer: cons,
		sc:       codec.NewScratch(),
		seen:     make(map[string]struct{}, n),
	}
	if history != nil {
		// Persist's scratch, sized like a batch for a full drain.
		app.rows = history.col.NewRows(alarmFields...)
		app.hist = histScratch{macs: make([]string, 0, n), conds: make([]docstore.Cond, 0, 2*n),
			filters: make([][]docstore.Cond, 0, n), out: make([][]HistogramBucket, 0, n),
			sweep: docstore.NewSweep()}
	}
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

// Records returns the total alarms processed.
func (c *ConsumerApp) Records() int { return int(c.records.Load()) }

// Batches returns the number of micro-batches fully processed.
func (c *ConsumerApp) Batches() int { return int(c.batches.Load()) }
