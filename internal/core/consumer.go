package core

import (
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/docstore"
	"alarmverify/internal/metrics"
)

// ComponentTimes is the Figure 12 breakdown of one batch: where the
// consumer's batch time goes. Each stage fills its own component of
// Batch.Times; experiments.Fig12 reads the replay consumer's. In the
// paper, machine learning dominates (~80 %), the streaming component
// (deserialization + distinct addresses) takes most of the rest, and
// the history query is insignificant.
type ComponentTimes struct {
	Deserialize time.Duration
	Streaming   time.Duration // distinct-device extraction and bookkeeping
	History     time.Duration // per-device histogram queries: the replay consumer's, serving runs none
	ML          time.Duration
	// Ingest is the alarm-persistence write path. The paper's
	// consumer breakdown does not include it (alarms reached MongoDB
	// through a separate ingestion path), so Figure 12's total excludes
	// it; it is still measured, and is the persist stage's whole time.
	Ingest time.Duration
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
	// ClassifyBatch is ignored.
	//
	// Deprecated: ignored. Classify verifies classifyChunk (256) alarms
	// per ml.SparseModel call; the field stays only because the
	// benchmark harness still reads it from DefaultConsumerConfig, and
	// goes once that read does.
	ClassifyBatch int
	// MaxPerBatch bounds records drained per micro-batch; 0 or less
	// means defaultMaxPerBatch (512). The stage queues bound batches,
	// not records, so without a bound one drain after a stall would
	// take the whole backlog.
	MaxPerBatch int
	// PollTimeout is ignored.
	//
	// Deprecated: ignored. A drain parks at most idlePoll (50 ms);
	// the field stays only because the benchmark harness still
	// assigns it, and goes once that assignment does.
	PollTimeout time.Duration
	// Metrics, when set, receives per-stage durations
	// (decode/classify/persist/commit), per-record end-to-end
	// latencies and the shed counter. One Pipeline may be shared by
	// every shard of a service — recording is lock-free.
	Metrics *metrics.Pipeline
}

// idlePoll bounds how long a drain parks for the first record when
// the consumer's partitions are idle. An append ends the park at once,
// and so does an in-process rebalance, so it is no latency: it is only
// how soon an idle intake sees a stop (and, over the wire, a
// rebalance), like Kafka's fetch.max.wait.ms.
const idlePoll = 50 * time.Millisecond

// defaultMaxPerBatch is the drain bound a MaxPerBatch of 0 or less
// means, and classifyChunk the alarms Classify verifies per
// ml.SparseModel call out of the app's one batch of sparse rows.
const (
	defaultMaxPerBatch = 512
	classifyChunk      = 256
)

// DefaultConsumerConfig returns the serving configuration: 512-record
// drains. ClassifyBatch reports the classify chunk.
func DefaultConsumerConfig() ConsumerConfig {
	return ConsumerConfig{ClassifyBatch: classifyChunk, MaxPerBatch: defaultMaxPerBatch}
}

// ConsumerApp is the §5.5 Consumer application: it drains alarm
// batches from the broker, verifies every alarm in real time, and
// stores each with its verdict in the alarm history. It is the stages
// and their scratch: whoever joined the group member it drains (serve's
// shard) asks that member for the rest and counts the batches it
// finished.
type ConsumerApp struct {
	cfg      ConsumerConfig
	verifier *Verifier
	history  *History
	consumer broker.GroupConsumer

	// chunk is Classify's chunk size: classifyChunk, which only the
	// package's tests change.
	chunk int

	// Each stage owns its scratch, kept for the app's life: a GC does
	// not take it back as it would a sync.Pool's. sc (the string
	// interner) and seen (the distinct-device set) are Decode's, on the
	// single intake goroutine; free holds released batches between
	// ReleaseBatch and the next Drain; class is Classify's sparse rows
	// and probabilities; rows (the row batch alarms are stored through)
	// is Persist's, and an app runs one persist goroutine.
	sc    *codec.Scratch
	seen  map[string]struct{}
	free  batchList
	class batchScratch
	rows  *docstore.Rows
}

// NewConsumerAppFor wires the consumer application onto an
// already-joined group consumer — in-process or the network client —
// so the same pipeline runs against a local broker or a remote
// replicated one. The int is the topic's partition count; the drain
// keeps no per-partition layout, so it is unused.
func NewConsumerAppFor(cons broker.GroupConsumer, _ int,
	verifier *Verifier, history *History, cfg ConsumerConfig) *ConsumerApp {
	if cfg.MaxPerBatch <= 0 {
		cfg.MaxPerBatch = defaultMaxPerBatch
	}
	app := &ConsumerApp{
		cfg:      cfg,
		chunk:    classifyChunk,
		verifier: verifier,
		history:  history,
		consumer: cons,
		sc:       codec.NewScratch(),
		seen:     make(map[string]struct{}, cfg.MaxPerBatch),
	}
	if history != nil {
		app.rows = history.col.NewRows(alarmFields...)
	}
	return app
}

// Close leaves the consumer group, releasing partitions to surviving
// members.
func (c *ConsumerApp) Close() { c.consumer.Close() }
