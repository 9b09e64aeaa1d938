// Package serve runs the verification service at scale: N consumer
// shards join one broker consumer group — each owning a slice of the
// topic's partitions, the §5.5.2 "partitions are the parallelism
// knob" lesson — and every shard processes its micro-batches through
// a bounded decode → classify → persist pipeline, so consecutive
// batches overlap instead of running strictly serially as in the
// single-process consumer the paper started from.
//
// Backpressure is structural: each stage queue holds at most
// pipelineDepth (2) batches, so when persist (the document-store
// round-trips) lags, intake stops draining the broker instead of
// buffering batches without bound. Each drain returns what is queued,
// up to core's drain bound (512 records unless
// core.ConsumerConfig.MaxPerBatch names another; one record when idle),
// so batch size already follows the load. On top of it sits one
// overload control: bounded-queue load shedding (Config.ShedQueue)
// drops the oldest drained batches — counted, offsets still committed
// — once the backlog passes the bound, so end-to-end p99 stays bounded
// through a flash crowd (experiments.Overload quantifies it). Offsets
// are committed per batch, exactly as far as that batch read, only
// after the batch has fully persisted — exactly-once under stable
// membership, at-least-once across rebalances (a fenced commit fails
// with ErrRebalanceStale and the successor resumes from the last
// durable commit, exactly like Kafka's consumer groups).
//
// Rebalances are handled with a pipeline barrier: on a membership
// notification the shard stops draining, floats a flush marker
// through its stages, waits for every in-flight batch to persist and
// commit, then refreshes its assignment and resumes from the
// committed offsets. An idle shard's drain parks in the consumer for at
// most core's idle bound (50 ms); an append ends the park at once, and
// in process so does the rebalance notification, so only a stop (or,
// over the wire, a rebalance the heartbeat reports) waits for the
// bound.
//
// Each shard runs internal/core's one consume path — Drain, Decode,
// Classify, Persist, then a commit and ReleaseBatch — with each stage
// on its own goroutine. The shard holds the group member it joined
// (core.ConsumerApp drains and commits through it), asks it for
// rebalances, lag, assignment and leases, and keeps its own counters.
// The classify stage is the paper's dominant cost (Figure 12: ~80 %
// ML). It runs vectorized: the batch is split into 256-alarm chunks,
// each encoded into the shard's sparse rows and scored by the model's
// compiled serving form (ml.SparseModel), one after another on the
// classify goroutine. So classification of batch
// N overlaps decode of batch N+1 and persist of batch N−1 even inside a
// single shard; parallelism beyond that comes from shards. Stage
// timings go to the metrics.Pipeline a caller attaches
// (core.ConsumerConfig.Metrics). See ARCHITECTURE.md for the
// stage-level dataflow.
//
// All shards share one *core.Verifier, whose model state lives in an
// immutable snapshot behind an atomic pointer: a background retrain
// (core.Retrainer) hot-swaps the model while the shards keep
// running. The classify stage pins the snapshot once per micro-batch
// (all of a batch's chunks share it), so in-flight batches finish on
// the model they started with, later batches pick up the new one,
// and no batch is ever split across two models — the service needs
// no barrier, drain or lock at swap time.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/core"
	"alarmverify/internal/metrics"
)

// Config tunes the sharded service. DefaultConfig is the serving
// configuration; a caller changes only the fields it names.
type Config struct {
	// Shards is the number of consumer-group members; each owns a
	// partition subset, so throughput scales with min(Shards,
	// Partitions). Default 1.
	Shards int
	// PipelineDepth is ignored.
	//
	// Deprecated: ignored. Each stage queue holds pipelineDepth
	// batches; the field stays only because the benchmark harness
	// still assigns it, and goes once that assignment does.
	PipelineDepth int
	// ShedQueue bounds the per-shard backlog (in records) the
	// pipeline accepts before load shedding. The backlog is broker
	// lag plus the records already drained into the shard's bounded
	// stage queues: when a freshly drained batch would push it past
	// the bound, that batch — the oldest queued work — is dropped
	// (skipping classify and persist) and its offsets committed, so
	// the shard catches up to fresher records and end-to-end p99
	// stays bounded through a flash crowd instead of collapsing into
	// seconds of queueing delay. Shed records are counted per shard
	// and in the pipeline metrics. 0 disables shedding (every record
	// is eventually processed).
	ShedQueue int
	// MemberPrefix prefixes the shard member ids this service joins the
	// consumer group with ("shard-0" → "<prefix>-shard-0"). Member ids
	// must be unique within a group, so every alarmd process joining the
	// same group over the network must set a distinct prefix (alarmd
	// derives one from hostname+pid); empty keeps the bare ids — fine
	// for the single-process deployment.
	MemberPrefix string
	// Consumer configures each shard's consumer application: its drain
	// bound (core's 512 by default) and the metrics it records into.
	Consumer core.ConsumerConfig
}

// Cluster is the broker surface the service consumes: a way to join
// the consumer group and to audit the group's committed offsets.
// LocalCluster adapts the in-process broker; netbroker's client
// provides the same surface over TCP, so shards run unmodified in
// separate processes.
type Cluster interface {
	// NewGroupConsumer joins the group with the given member id and
	// returns the consumer plus the topic's partition count.
	NewGroupConsumer(group, id string) (broker.GroupConsumer, int, error)
	// GroupCommitted snapshots the group's committed offsets per
	// partition (the coordinator-side audit view).
	GroupCommitted(group string) (map[int]int64, error)
}

// LocalCluster adapts an in-process broker and topic to the Cluster
// surface.
type LocalCluster struct {
	Broker *broker.Broker
	Topic  string
}

// NewGroupConsumer joins the group on the local broker topic.
func (lc LocalCluster) NewGroupConsumer(group, id string) (broker.GroupConsumer, int, error) {
	t, err := lc.Broker.Topic(lc.Topic)
	if err != nil {
		return nil, 0, err
	}
	c, err := broker.NewConsumer(lc.Broker, group, t, id)
	if err != nil {
		return nil, 0, err
	}
	return c, t.Partitions(), nil
}

// GroupCommitted snapshots the group's committed offsets from the
// local coordinator.
func (lc LocalCluster) GroupCommitted(group string) (map[int]int64, error) {
	return lc.Broker.GroupCommitted(group)
}

// DefaultConfig returns a single shard with the serving consumer
// configuration (core.DefaultConsumerConfig: 512-record drains), no
// shedding and no metrics.
func DefaultConfig() Config {
	return Config{
		Shards:   1,
		Consumer: core.DefaultConsumerConfig(),
	}
}

// pipelineDepth bounds each of a shard's stage queues, in batches. Two
// lets decode run a batch ahead of classify and classify one ahead of
// persist; the drain bound (core.ConsumerConfig.MaxPerBatch, 512 by
// default) bounds the records a batch holds.
const pipelineDepth = 2

// Service is the sharded, pipelined verification service.
type Service struct {
	group   string
	cluster Cluster
	shards  []*shard
	history *core.History

	stop      chan struct{}
	wg        sync.WaitGroup
	startOnce sync.Once
	stopOnce  sync.Once

	mu      sync.Mutex
	started time.Time
	stopped time.Time
}

// New builds a service of cfg.Shards consumer shards joined to one
// consumer group on the in-process broker's topic. Call Start to begin
// processing and Close to release the group membership.
func New(b *broker.Broker, topicName, group string, verifier *core.Verifier,
	history *core.History, cfg Config) (*Service, error) {
	return NewWith(LocalCluster{Broker: b, Topic: topicName}, group, verifier, history, cfg)
}

// NewWith builds the service against any Cluster — the in-process
// broker via LocalCluster, or a remote replicated broker via the
// netbroker client — so the same shard pipeline serves both
// deployments.
func NewWith(cluster Cluster, group string, verifier *core.Verifier,
	history *core.History, cfg Config) (*Service, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	s := &Service{group: group, cluster: cluster, history: history, stop: make(chan struct{})}
	for i := 0; i < cfg.Shards; i++ {
		id := fmt.Sprintf("shard-%d", i)
		if cfg.MemberPrefix != "" {
			id = cfg.MemberPrefix + "-" + id
		}
		cons, partitions, err := cluster.NewGroupConsumer(group, id)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		app := core.NewConsumerAppFor(cons, partitions, verifier, history, cfg.Consumer)
		if m := cfg.Consumer.Metrics; m != nil {
			m.WatchConsumer(func() metrics.ConsumerLeases {
				st := cons.LeaseStats()
				return metrics.ConsumerLeases{Shard: id, Active: st.Active, Free: st.Free, Bytes: st.Bytes}
			})
		}
		s.shards = append(s.shards, &shard{id: id, cons: cons, app: app, shed: cfg.ShedQueue})
	}
	// Joining is sequential, so every shard but the last computed its
	// assignment against a partial membership. Settle the group before
	// processing starts: refresh each shard against the final
	// membership and absorb the join-time rebalance signals.
	for _, sh := range s.shards {
		if err := sh.cons.RefreshAssignment(); err != nil {
			s.Close()
			return nil, fmt.Errorf("serve: %s: %w", sh.id, err)
		}
		select {
		case <-sh.cons.Rebalances():
		default:
		}
	}
	return s, nil
}

// Start launches every shard's pipeline. It returns immediately.
func (s *Service) Start() {
	s.startOnce.Do(func() {
		s.mu.Lock()
		s.started = time.Now()
		s.mu.Unlock()
		for _, sh := range s.shards {
			sh.run(&s.wg, s.stop)
		}
	})
}

// Stop gracefully drains the service: intake halts, in-flight batches
// flow through classify and persist, their offsets are committed, and
// all shard goroutines exit. Safe to call more than once.
func (s *Service) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	s.mu.Lock()
	if s.stopped.IsZero() {
		s.stopped = time.Now()
	}
	s.mu.Unlock()
}

// Close stops the service and leaves the consumer group, releasing
// the shards' partitions to any surviving members.
func (s *Service) Close() {
	s.Stop()
	for _, sh := range s.shards {
		sh.cons.Close()
	}
}

// Records returns the total alarms verified across all shards.
func (s *Service) Records() int {
	total := 0
	for _, sh := range s.shards {
		total += int(sh.records.Load())
	}
	return total
}

// Verified returns every verdict stored in the service's history, in
// ingest order (History.Verdicts) — the shared store's, so any other
// service's or earlier run's too. Nil without a history.
func (s *Service) Verified() []alarm.Verification {
	if s.history == nil {
		return nil
	}
	_, out := s.history.Verdicts()
	return out
}

// Lag sums the records between each shard's position and the high
// watermarks of its partitions.
func (s *Service) Lag() (int64, error) {
	var total int64
	for _, sh := range s.shards {
		lag, err := sh.cons.Lag()
		if err != nil {
			return total, err
		}
		total += lag
	}
	return total, nil
}

// Committed returns the consumer group's committed offsets per
// partition, as recorded by the broker coordinator.
func (s *Service) Committed() (map[int]int64, error) {
	return s.cluster.GroupCommitted(s.group)
}

// Err returns the first stage error any shard recorded, or nil. A
// shard that errors halts: it stops draining and commits nothing
// past the failed batch, so the records are redelivered to a
// successor rather than silently skipped.
func (s *Service) Err() error {
	for _, sh := range s.shards {
		if err := sh.err(); err != nil {
			return fmt.Errorf("serve: %s: %w", sh.id, err)
		}
	}
	return nil
}

// ShardStats is one shard's view of the service.
type ShardStats struct {
	ID         string
	Partitions []int
	Batches    int
	Records    int
	// InFlightPeak is the most batches ever simultaneously between
	// decode and persist — bounded by the stage queues' depth (the
	// backpressure guarantee).
	InFlightPeak int64
	// ShedRecords counts records dropped by bounded-queue load
	// shedding on this shard.
	ShedRecords int64
	// StaleCommits counts batch commits fenced by a rebalance.
	StaleCommits int64
	// Rebalances counts assignment refreshes this shard performed.
	Rebalances int64
	// Leases is the occupancy of the consumer's lease free list: leases
	// lent to batches in flight (0 once the shard has drained), leases
	// free, and the bytes of receive buffer they hold between them.
	Leases broker.LeaseStats
	// Err is the first stage error observed (nil when healthy).
	Err error
}

// Stats is an aggregate snapshot of the running (or stopped) service.
type Stats struct {
	Records int
	Batches int
	Elapsed time.Duration
	// PerSec is wall-clock alarms/s between Start and Stop (or now).
	PerSec float64
	// ShedRecords is the total records dropped by load shedding
	// across all shards.
	ShedRecords int64
	Shards      []ShardStats
}

// Stats snapshots service-wide and per-shard statistics.
func (s *Service) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		shs := ShardStats{
			ID:           sh.id,
			Partitions:   sh.cons.Assignment(),
			Batches:      int(sh.batches.Load()),
			Records:      int(sh.records.Load()),
			InFlightPeak: sh.inflightPeak.Load(),
			ShedRecords:  sh.shedRecords.Load(),
			StaleCommits: sh.staleCommits.Load(),
			Rebalances:   sh.rebalances.Load(),
			Leases:       sh.cons.LeaseStats(),
			Err:          sh.err(),
		}
		st.Records += shs.Records
		st.Batches += shs.Batches
		st.ShedRecords += shs.ShedRecords
		st.Shards = append(st.Shards, shs)
	}
	s.mu.Lock()
	switch {
	case s.started.IsZero():
	case s.stopped.IsZero():
		st.Elapsed = time.Since(s.started)
	default:
		st.Elapsed = s.stopped.Sub(s.started)
	}
	s.mu.Unlock()
	if st.Elapsed > 0 {
		st.PerSec = float64(st.Records) / st.Elapsed.Seconds()
	}
	return st
}

// item is one pipeline element: either a batch or a flush barrier.
type item struct {
	b *core.Batch
	// flush, when non-nil, marks a barrier: persist closes it once
	// every earlier batch has been persisted and committed.
	flush chan struct{}
}

// shard is one consumer-group member running the three-stage
// pipeline. Each stage is a single goroutine, so batches move through
// the shard in FIFO order and commits stay ordered.
type shard struct {
	id string
	// cons is the group member the shard joined: app's stages drain and
	// commit through it, and the shard asks it for the rest.
	cons broker.GroupConsumer
	app  *core.ConsumerApp
	// shed is the backlog bound (records) beyond which drained
	// batches are dropped; 0 disables shedding.
	shed int

	inflight     atomic.Int64
	inflightPeak atomic.Int64
	// inflightRecs counts records currently inside the stage queues
	// and still awaiting service — drained off the broker but not yet
	// persisted. The shed decision adds it to broker lag: positions
	// advance at drain time, so lag alone misses everything queued in
	// the pipeline. Shed batches are excluded: they flow through the
	// stages only to keep commits FIFO, and counting already-dropped
	// records as backlog would keep the bound exceeded for as long as
	// the queues hold them — a shard that drains faster than it
	// persists would then shed everything instead of the excess.
	inflightRecs atomic.Int64
	// batches and records count persisted batches and their alarms.
	batches      atomic.Int64
	records      atomic.Int64
	shedRecords  atomic.Int64
	staleCommits atomic.Int64
	rebalances   atomic.Int64

	// failed latches on the first stage error and halts the shard:
	// intake stops draining and no later batch is committed, so the
	// failed batch's records stay past the durable offsets and a
	// successor redelivers them (at-least-once even under errors).
	// Committing batches drained after a dropped one would silently
	// skip its records, since commits are absolute offsets.
	failed   atomic.Bool
	errMu    sync.Mutex
	firstErr error
}

func (s *shard) err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.firstErr
}

func (s *shard) recordErr(err error) {
	s.errMu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.errMu.Unlock()
	s.failed.Store(true)
}

func (s *shard) inflightAdd(d int64) {
	n := s.inflight.Add(d)
	for {
		peak := s.inflightPeak.Load()
		if n <= peak || s.inflightPeak.CompareAndSwap(peak, n) {
			return
		}
	}
}

// batchDone retires a batch from the in-flight accounting, whatever
// its fate (persisted, shed, or dropped on error), and recycles its
// scratch: the broker lease over its raw payloads is released and a
// drained batch goes back on the app's free list. The batch must not be
// touched after this call.
func (s *shard) batchDone(b *core.Batch) {
	if !b.Shed {
		s.inflightRecs.Add(-int64(b.Len()))
	}
	s.inflightAdd(-1)
	s.app.ReleaseBatch(b)
}

// run wires the stages together and launches them. The stop channel
// only halts intake; downstream stages exit once their inbound
// channels close, so everything already drained is fully processed
// and committed before run's goroutines finish — the graceful-drain
// guarantee behind Service.Stop.
func (s *shard) run(wg *sync.WaitGroup, stop <-chan struct{}) {
	toClassify := make(chan item, pipelineDepth)
	toPersist := make(chan item, pipelineDepth)
	wg.Add(3)
	go s.intake(wg, stop, toClassify)
	go s.classify(wg, toClassify, toPersist)
	go s.persist(wg, toPersist)
}

// intake drains and decodes micro-batches. The bounded send into the
// classify queue is the backpressure point: when persist lags, the
// send blocks and the broker simply retains the unread records.
func (s *shard) intake(wg *sync.WaitGroup, stop <-chan struct{}, out chan<- item) {
	defer wg.Done()
	defer close(out)
	for {
		select {
		case <-stop:
			return
		default:
		}
		if s.failed.Load() {
			// A stage error halted the shard: stop draining so nothing
			// past the failed batch is ever committed.
			return
		}
		select {
		case <-s.cons.Rebalances():
			s.handleRebalance(stop, out)
			continue
		default:
		}
		b := s.app.Drain()
		s.app.Decode(b)
		if b.Len() == 0 {
			// Idle poll: the drain parked in the consumer until its idle
			// bound or a rebalance ended it, and no record woke it (or
			// every record it pulled was undecodable), so there is
			// nothing to push downstream — only the stop and rebalance
			// checks above to come back to. Recycle the pooled scratch
			// and leases.
			s.app.ReleaseBatch(b)
			continue
		}
		if s.shed > 0 {
			// Bounded-queue load shedding: if this batch would push
			// the backlog — records still in the broker plus records
			// already queued in the pipeline — past the bound, every
			// record in it is older than the queue the shard is
			// willing to serve. Drop it (oldest-first) so processing
			// capacity goes to records that can still meet a latency
			// target. The batch still flows through the pipeline to
			// keep commits FIFO; classify and persist skip it.
			backlog := s.inflightRecs.Load() + int64(b.Len())
			if lag, err := s.cons.Lag(); err == nil {
				backlog += lag
			}
			if backlog > int64(s.shed) {
				s.app.MarkShed(b)
				s.shedRecords.Add(int64(b.Len()))
			}
		}
		s.inflightAdd(1)
		if !b.Shed {
			s.inflightRecs.Add(int64(b.Len()))
		}
		out <- item{b: b}
	}
}

// handleRebalance floats a flush barrier through the pipeline, waits
// until every in-flight batch has been committed, then refreshes the
// shard's partition assignment from the committed offsets.
func (s *shard) handleRebalance(stop <-chan struct{}, out chan<- item) {
	s.rebalances.Add(1)
	flush := make(chan struct{})
	out <- item{flush: flush}
	select {
	case <-flush:
	case <-stop:
		// Shutting down: the pipeline still drains fully via channel
		// close, so skipping the refresh is safe.
		return
	}
	if err := s.cons.RefreshAssignment(); err != nil {
		s.recordErr(err)
	}
}

// classify runs the ML stage over each batch.
func (s *shard) classify(wg *sync.WaitGroup, in <-chan item, out chan<- item) {
	defer wg.Done()
	defer close(out)
	for it := range in {
		if it.flush == nil && !it.b.Shed {
			if s.failed.Load() {
				s.batchDone(it.b)
				continue // shard halted: drop without committing
			}
			if err := s.app.Classify(it.b); err != nil {
				s.recordErr(err)
				s.batchDone(it.b)
				continue
			}
		}
		out <- it
	}
}

// persist runs the batch component and commits each batch's drained
// offsets once it is durable.
func (s *shard) persist(wg *sync.WaitGroup, in <-chan item) {
	defer wg.Done()
	for it := range in {
		if it.flush != nil {
			close(it.flush)
			continue
		}
		if s.failed.Load() {
			// A batch ahead of this one was dropped; committing this
			// one would durably skip the dropped records.
			s.batchDone(it.b)
			continue
		}
		if !it.b.Shed {
			if err := s.app.Persist(it.b); err != nil {
				s.recordErr(err)
				s.batchDone(it.b)
				continue
			}
			s.batches.Add(1)
			s.records.Add(int64(it.b.Len()))
		}
		if err := s.app.CommitBatch(it.b); err != nil {
			if errors.Is(err, broker.ErrRebalanceStale) {
				// Fenced by a membership change: the records were
				// processed but the successor will re-read from the
				// last durable commit (at-least-once across
				// rebalances).
				s.staleCommits.Add(1)
			} else {
				s.recordErr(err)
			}
		}
		s.batchDone(it.b)
	}
}
