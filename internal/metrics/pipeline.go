package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names one measured segment of the verification pipeline.
type Stage string

// The measured pipeline segments. The first four mirror the stage
// boundaries of core's Decode → Classify → Persist → CommitBatch;
// StageE2E is the per-record broker-enqueue-to-commit latency — the
// number that collapses under overload unless the service sheds.
const (
	StageDecode   Stage = "decode"
	StageClassify Stage = "classify"
	StagePersist  Stage = "persist"
	StageCommit   Stage = "commit"
	StageE2E      Stage = "e2e"
)

// Stages lists every pipeline stage in dataflow order.
func Stages() []Stage {
	return []Stage{StageDecode, StageClassify, StagePersist, StageCommit, StageE2E}
}

// Pipeline bundles one histogram per pipeline stage plus the
// load-shedding counter. One Pipeline is shared by every shard of a
// service: the histograms are lock-free, so concurrent shards record
// into the same instance without coordination.
type Pipeline struct {
	stages map[Stage]*Histogram
	shed   atomic.Int64

	mu        sync.Mutex
	consumers []func() ConsumerLeases
}

// ConsumerLeases is one shard consumer's lease occupancy: leases lent to
// batches in flight, leases waiting on its free list, and the bytes of
// receive buffer the two hold between them.
type ConsumerLeases struct {
	Shard               string
	Active, Free, Bytes int64
}

// WatchConsumer makes read the source of one shard's lease occupancy;
// every Snapshot asks it.
func (p *Pipeline) WatchConsumer(read func() ConsumerLeases) {
	p.mu.Lock()
	p.consumers = append(p.consumers, read)
	p.mu.Unlock()
}

// NewPipeline builds a pipeline metric set with one histogram per
// stage.
func NewPipeline() *Pipeline {
	p := &Pipeline{stages: make(map[Stage]*Histogram, len(Stages()))}
	for _, s := range Stages() {
		p.stages[s] = NewHistogram()
	}
	return p
}

// Stage returns the histogram for one stage (nil for unknown names).
// The map is fixed at construction, so the lookup is read-only and
// safe under any concurrency.
func (p *Pipeline) Stage(s Stage) *Histogram { return p.stages[s] }

// AddShed counts n records dropped by load shedding.
func (p *Pipeline) AddShed(n int) { p.shed.Add(int64(n)) }

// ShedRecords returns the total records dropped by load shedding.
func (p *Pipeline) ShedRecords() int64 { return p.shed.Load() }

// PipelineSnapshot is a point-in-time view of every stage histogram
// plus the shed counter.
type PipelineSnapshot struct {
	// Stages maps each stage to its histogram snapshot.
	Stages map[Stage]*Snapshot
	// ShedRecords is the cumulative load-shed record count.
	ShedRecords int64
	// Consumers holds the watched consumers' lease occupancy, in the
	// order they were registered.
	Consumers []ConsumerLeases
}

// Snapshot captures all stage histograms and the shed counter.
func (p *Pipeline) Snapshot() PipelineSnapshot {
	ps := PipelineSnapshot{
		Stages:      make(map[Stage]*Snapshot, len(p.stages)),
		ShedRecords: p.shed.Load(),
	}
	for s, h := range p.stages {
		ps.Stages[s] = h.Snapshot()
	}
	p.mu.Lock()
	watched := p.consumers[:len(p.consumers):len(p.consumers)]
	p.mu.Unlock()
	for _, read := range watched {
		ps.Consumers = append(ps.Consumers, read())
	}
	return ps
}

// LatencySummary is the compact quantile view of one histogram that
// /stats embeds.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"meanMs"`
	P50MS  float64 `json:"p50Ms"`
	P95MS  float64 `json:"p95Ms"`
	P99MS  float64 `json:"p99Ms"`
	MaxMS  float64 `json:"maxMs"`
}

// Summary reduces a snapshot to the quantiles operators watch.
func (s *Snapshot) Summary() LatencySummary {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencySummary{
		Count:  s.N,
		MeanMS: ms(s.Mean()),
		P50MS:  ms(s.Quantile(0.50)),
		P95MS:  ms(s.Quantile(0.95)),
		P99MS:  ms(s.Quantile(0.99)),
		MaxMS:  ms(s.Max()),
	}
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format (summary metrics with quantile labels, per stage), suitable
// for GET /metrics. Extra named histograms (e.g. the HTTP edge
// latency) can be appended with WritePromHistogram.
func (ps PipelineSnapshot) WriteProm(w io.Writer) {
	names := make([]string, 0, len(ps.Stages))
	for s := range ps.Stages {
		names = append(names, string(s))
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# HELP alarmverify_stage_latency_seconds Per-stage pipeline latency.\n")
	fmt.Fprintf(w, "# TYPE alarmverify_stage_latency_seconds summary\n")
	for _, name := range names {
		writePromSummary(w, "alarmverify_stage_latency_seconds",
			fmt.Sprintf("stage=%q", name), ps.Stages[Stage(name)])
	}
	fmt.Fprintf(w, "# HELP alarmverify_shed_records_total Records dropped by load shedding.\n")
	fmt.Fprintf(w, "# TYPE alarmverify_shed_records_total counter\n")
	fmt.Fprintf(w, "alarmverify_shed_records_total %d\n", ps.ShedRecords)
	if len(ps.Consumers) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP alarmverify_consumer_leases Leases of a shard's consumer: lent to batches in flight (active) or waiting on its free list.\n")
	fmt.Fprintf(w, "# TYPE alarmverify_consumer_leases gauge\n")
	for _, c := range ps.Consumers {
		fmt.Fprintf(w, "alarmverify_consumer_leases{shard=%q,state=\"active\"} %d\n", c.Shard, c.Active)
		fmt.Fprintf(w, "alarmverify_consumer_leases{shard=%q,state=\"free\"} %d\n", c.Shard, c.Free)
	}
	fmt.Fprintf(w, "# HELP alarmverify_consumer_lease_bytes Receive buffer a shard's consumer holds under its leases, lent and free.\n")
	fmt.Fprintf(w, "# TYPE alarmverify_consumer_lease_bytes gauge\n")
	for _, c := range ps.Consumers {
		fmt.Fprintf(w, "alarmverify_consumer_lease_bytes{shard=%q} %d\n", c.Shard, c.Bytes)
	}
}

// WritePromHistogram renders one standalone histogram snapshot as a
// Prometheus summary metric.
func WritePromHistogram(w io.Writer, metric string, s *Snapshot) {
	fmt.Fprintf(w, "# HELP %s Latency.\n# TYPE %s summary\n", metric, metric)
	writePromSummary(w, metric, "", s)
}

func writePromSummary(w io.Writer, metric, labels string, s *Snapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	secs := func(d time.Duration) float64 { return d.Seconds() }
	for _, q := range []float64{0.5, 0.95, 0.99} {
		fmt.Fprintf(w, "%s{%s%squantile=\"%g\"} %g\n",
			metric, labels, sep, q, secs(s.Quantile(q)))
	}
	fmt.Fprintf(w, "%s_sum{%s} %g\n", metric, labels, secs(s.Sum))
	fmt.Fprintf(w, "%s_count{%s} %d\n", metric, labels, s.N)
}
