package core

import (
	"sync"
	"sync/atomic"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/anomaly"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/docstore"
	"alarmverify/internal/metrics"
	"alarmverify/internal/stream"
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
	// Codec deserializes alarms off the wire (the Figure 11 knob).
	Codec codec.Codec
	// Workers sizes the executor pool; 1 reproduces the serial
	// pre-optimization consumer of §5.5.2.
	Workers int
	// ClassifyWorkers bounds the dedicated classify worker pool. The
	// classify stage runs on its own pool (not the executor pool), so
	// under the sharded pipeline classification of batch N overlaps
	// decode of batch N+1 and persist of batch N-1. 0 means one
	// worker per CPU.
	ClassifyWorkers int
	// ClassifyBatch is the micro-chunk size of the vectorized
	// classify path: each classify worker verifies this many alarms
	// per ml.SparseModel call out of one pooled batch of sparse rows.
	// 0 means the 256 default; 1 reproduces the per-alarm baseline.
	ClassifyBatch int
	// CacheDecoded controls whether the deserialized batch is cached
	// before being reused by the ML and history paths. False
	// reproduces the double-deserialization bug of §6.2.
	CacheDecoded bool
	// HistogramSince and HistogramBucket shape the per-device history
	// query (§4.1); zero values default to 30 days / 1 day buckets.
	HistogramSince  time.Duration
	HistogramBucket time.Duration
	// MaxPerBatch bounds records drained per micro-batch. Under
	// adaptive batching it is the ceiling the batch can grow to.
	MaxPerBatch int
	// AdaptiveBatch grows the per-drain record bound under queue
	// pressure (a saturated drain doubles it, up to MaxPerBatch) and
	// shrinks it when drains come back mostly empty (halving down to
	// AdaptiveMinBatch) — big batches amortize per-batch costs during
	// a burst, small batches keep latency low when idle.
	AdaptiveBatch bool
	// AdaptiveMinBatch is the adaptive floor (default 64).
	AdaptiveMinBatch int
	// PollTimeout bounds how long a drain waits for the first record
	// when the topic is idle; zero keeps the source default.
	PollTimeout time.Duration
	// Anomaly, when set, receives every micro-batch window so the
	// §3 "large event" spikes are detected as they form.
	Anomaly *anomaly.Monitor
	// Metrics, when set, receives per-stage durations
	// (decode/classify/persist/commit), per-record end-to-end
	// latencies and the shed counter. One Pipeline may be shared by
	// every shard of a service — recording is lock-free.
	Metrics *metrics.Pipeline
}

// DefaultConsumerConfig returns the optimized configuration the paper
// converged on: fast serializer, parallel execution, cached batches.
func DefaultConsumerConfig() ConsumerConfig {
	return ConsumerConfig{
		Codec:           codec.FastCodec{},
		Workers:         0, // GOMAXPROCS
		ClassifyBatch:   256,
		CacheDecoded:    true,
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
	source   *stream.BrokerSource
	pool     *stream.Pool
	// classify is the dedicated bounded pool of the ML stage, sized
	// by ConsumerConfig.ClassifyWorkers.
	classify *stream.Pool
	// batchLimit is the adaptive per-drain record bound; only Drain
	// (single intake goroutine) writes it, BatchLimit reads it.
	batchLimit atomic.Int64

	// scratch is non-nil when the configured codec supports zero-copy
	// scratch decoding and decoded batches are cached: Drain then
	// takes the pooled, lease-borrowing hot path. sc is the decode
	// scratch (string interner) — used only by the single intake
	// goroutine — and batchPool recycles Batch scratch between
	// ReleaseBatch and the next Drain.
	scratch   codec.ScratchUnmarshaler
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
// replicated one. partitions is the topic's partition count.
func NewConsumerAppFor(cons broker.GroupConsumer, partitions int,
	verifier *Verifier, history *History, cfg ConsumerConfig) *ConsumerApp {
	src := stream.NewGroupSource(cons, partitions)
	if cfg.MaxPerBatch > 0 {
		src.MaxPerBatch = cfg.MaxPerBatch
	}
	if cfg.PollTimeout > 0 {
		src.PollTimeout = cfg.PollTimeout
	}
	if cfg.Codec == nil {
		cfg.Codec = codec.FastCodec{}
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
	if cfg.AdaptiveBatch {
		if cfg.AdaptiveMinBatch <= 0 {
			cfg.AdaptiveMinBatch = 64
		}
		if cfg.MaxPerBatch <= 0 {
			cfg.MaxPerBatch = 8192
		}
		if cfg.AdaptiveMinBatch > cfg.MaxPerBatch {
			cfg.AdaptiveMinBatch = cfg.MaxPerBatch
		}
	}
	app := &ConsumerApp{
		cfg:      cfg,
		verifier: verifier,
		history:  history,
		consumer: cons,
		source:   src,
		pool:     stream.NewPool(cfg.Workers),
		classify: stream.NewPool(cfg.ClassifyWorkers),
	}
	if cfg.AdaptiveBatch {
		// Start at the floor: the first saturated drain doubles it.
		app.batchLimit.Store(int64(cfg.AdaptiveMinBatch))
	}
	// Persist's sweep scratch, sized like a pooled batch for a full drain.
	n := src.MaxPerBatch
	app.hist = histScratch{macs: make([]string, 0, n), conds: make([]docstore.Cond, 0, 2*n),
		filters: make([][]docstore.Cond, 0, n), out: make([][]HistogramBucket, 0, n)}
	if su, ok := cfg.Codec.(codec.ScratchUnmarshaler); ok && cfg.CacheDecoded {
		// The §6.2 cache ablation (CacheDecoded=false) must keep the
		// copying RDD lineage, so the zero-copy path is gated on both.
		app.scratch = su
		app.sc = codec.NewScratch()
	}
	return app
}

// Close leaves the consumer group (releasing partitions to surviving
// members) and shuts the worker pools down.
func (c *ConsumerApp) Close() {
	c.consumer.Close()
	c.pool.Close()
	c.classify.Close()
}

// ProcessBatches synchronously drains and processes n micro-batches,
// returning the number of alarms verified. Progress is committed to
// the broker after each fully-processed batch, preserving the
// exactly-once contract across consumer restarts.
func (c *ConsumerApp) ProcessBatches(n int) (int, error) {
	total := 0
	for i := 0; i < n; i++ {
		processed, err := c.processBatch(c.source.Batch())
		if err != nil {
			return total, err
		}
		if err := c.source.Commit(); err != nil {
			return total, err
		}
		total += processed
	}
	return total, nil
}

// Run attaches the consumer to a streaming context: every micro-batch
// interval, one batch is drained, processed and committed. Callers own
// Start/Stop on the context.
func (c *ConsumerApp) Run(ctx *stream.Context) error {
	records := stream.NewDStream(ctx, func(time.Time) *stream.RDD[broker.Record] {
		return c.source.Batch()
	})
	return stream.ForEachCounted(records, func(_ time.Time, rdd *stream.RDD[broker.Record]) int {
		n, err := c.processBatch(rdd)
		if err != nil {
			return 0
		}
		if err := c.source.Commit(); err != nil {
			return n
		}
		return n
	})
}

// processBatch is the Figure 3 workflow over one micro-batch: the
// composable pipeline stages (pipeline.go) run back to back. The
// sharded service in internal/serve runs the same stages overlapped
// across consecutive batches.
func (c *ConsumerApp) processBatch(raw *stream.RDD[broker.Record]) (int, error) {
	b := &Batch{Raw: raw}
	c.Decode(b)
	if err := c.Classify(b); err != nil {
		return 0, err
	}
	if err := c.Persist(b); err != nil {
		return 0, err
	}
	return b.Len(), nil
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

// Throughput returns verified alarms per second of total component
// time — the §5.5 headline metric.
func (c *ConsumerApp) Throughput() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.times.Total()
	if total <= 0 {
		return 0
	}
	return float64(c.records) / total.Seconds()
}
