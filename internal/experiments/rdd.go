package experiments

import (
	"runtime"
	"sync"
	"time"

	"alarmverify/internal/broker"
)

// The micro-batch engine the replay consumer runs on — the role Spark
// Streaming plays in the paper (§4.2, "Streaming Component"), kept to
// the parts the paper's lessons depend on. An rdd is a lazy,
// partitioned dataset: transformations (mapRDD, filterRDD) only record
// lineage, and the actions (collect, distinct) compute partitions on an
// executor pool. Without cache every action recomputes the lineage —
// the §6.2 pitfall ("Cache data that will be reused": the consumer
// deserialized its input twice because the stream was reused for both
// ML and history without caching). A brokerSource maps one broker
// partition to one rdd partition, so a topic with one partition is
// processed serially: the §5.5.2 "Kafka Optimization" lesson.

// rdd is lineage plus a per-partition compute function. It is
// immutable; transformations return new rdds.
type rdd[T any] struct {
	parts   int
	compute func(part int) []T
	cached  *rddCache[T]
}

type rddCache[T any] struct {
	mu    sync.Mutex
	parts [][]T
	done  []bool
}

// fromPartitions builds an rdd whose partitions are the given slices.
// The slices are referenced, not copied.
func fromPartitions[T any](parts [][]T) *rdd[T] {
	return &rdd[T]{parts: len(parts), compute: func(p int) []T { return parts[p] }}
}

// cache marks the rdd so that each partition is materialized at most
// once; later actions reuse the cached data instead of recomputing
// lineage.
func (r *rdd[T]) cache() *rdd[T] {
	if r.cached != nil {
		return r
	}
	return &rdd[T]{
		parts:   r.parts,
		compute: r.compute,
		cached:  &rddCache[T]{parts: make([][]T, r.parts), done: make([]bool, r.parts)},
	}
}

// partition computes (or fetches from cache) one partition.
func (r *rdd[T]) partition(p int) []T {
	c := r.cached
	if c == nil {
		return r.compute(p)
	}
	c.mu.Lock()
	if c.done[p] {
		out := c.parts[p]
		c.mu.Unlock()
		return out
	}
	c.mu.Unlock()
	out := r.compute(p)
	c.mu.Lock()
	if !c.done[p] {
		c.parts[p] = out
		c.done[p] = true
	} else {
		out = c.parts[p]
	}
	c.mu.Unlock()
	return out
}

// mapRDD applies f to every element.
func mapRDD[T, U any](r *rdd[T], f func(T) U) *rdd[U] {
	return &rdd[U]{
		parts: r.parts,
		compute: func(p int) []U {
			in := r.partition(p)
			out := make([]U, len(in))
			for i, v := range in {
				out[i] = f(v)
			}
			return out
		},
	}
}

// filterRDD keeps the elements for which pred is true.
func filterRDD[T any](r *rdd[T], pred func(T) bool) *rdd[T] {
	return &rdd[T]{
		parts: r.parts,
		compute: func(p int) []T {
			var out []T
			for _, v := range r.partition(p) {
				if pred(v) {
					out = append(out, v)
				}
			}
			return out
		},
	}
}

// collect computes all partitions on the pool and returns the
// concatenated elements.
func (r *rdd[T]) collect(p *pool) []T {
	parts := make([][]T, r.parts)
	p.run(r.parts, func(i int) { parts[i] = r.partition(i) })
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	out := make([]T, 0, total)
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// distinct returns r's distinct keys, in partition order — the
// workflow of §4.1 extracting "all devices that trigger an alarm within
// the observation period". It is an action: it computes r's partitions
// through their lineage, so an uncached r recomputes them.
func distinct[T any, K comparable](r *rdd[T], key func(T) K, p *pool) []K {
	seen := make(map[K]struct{})
	var out []K
	for _, v := range r.collect(p) {
		k := key(v)
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			out = append(out, k)
		}
	}
	return out
}

// pool is the fixed-size executor pool rdd actions run their partition
// tasks on. Its size is the engine's executor-core count: a pool of 1
// reproduces the serial consumer the paper saw before configuring
// parallelism (§5.5.2).
type pool struct {
	workers int
	tasks   chan func()
	once    sync.Once
}

// newPool starts a pool of n workers; n <= 0 means GOMAXPROCS.
func newPool(n int) *pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &pool{workers: n, tasks: make(chan func())}
	for i := 0; i < n; i++ {
		go func() {
			for t := range p.tasks {
				t()
			}
		}()
	}
	return p
}

// run executes f(0..n-1) on the pool and waits for all to finish.
// Tasks may not themselves call run on the same pool (no nested
// scheduling), mirroring a Spark stage boundary.
func (p *pool) run(n int, f func(i int)) {
	if n == 1 || p.workers == 1 {
		// The serial case needs no scheduling.
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		p.tasks <- func() {
			defer wg.Done()
			f(i)
		}
	}
	wg.Wait()
}

// close shuts the pool down. Pending run calls must have completed.
func (p *pool) close() {
	p.once.Do(func() { close(p.tasks) })
}

// brokerSource turns a broker consumer's leased polls into one rdd per
// micro-batch, using the Direct-DStream mapping: each broker partition
// becomes one rdd partition, so the broker's partition count directly
// bounds the engine's parallelism — the coupling behind the paper's
// §5.5.2 observation that an unpartitioned stream is processed
// serially.
type brokerSource struct {
	consumer   *broker.Consumer
	partitions int
	// maxPerBatch bounds how many records one micro-batch drains
	// (backpressure); 0 means unlimited.
	maxPerBatch int
}

// sourcePollTimeout bounds how long a batch waits, parked in the
// consumer, for its first record; an append ends the wait at once.
const sourcePollTimeout = 10 * time.Millisecond

// newBrokerSource wraps an in-process consumer of topic t; the topic's
// partition count shapes the rdd layout.
func newBrokerSource(c *broker.Consumer, t *broker.Topic) *brokerSource {
	return &brokerSource{consumer: c, partitions: t.Partitions()}
}

// batch is one poll, grouped by broker partition into rdd partitions:
// it waits until a record arrives, for at most sourcePollTimeout, and
// takes what has accumulated across the partitions, so a batch is
// whatever arrived while the caller was busy, and one record when it
// was not. The records' values borrow the broker's memory under the
// returned lease, which the caller releases once the batch's actions
// are done. A poll error is returned with no records and a nil lease.
func (s *brokerSource) batch() (*rdd[broker.Record], *broker.Lease, error) {
	max := s.maxPerBatch
	if max <= 0 {
		max = 1 << 20
	}
	recs, lease, err := s.consumer.PollLeased(max, sourcePollTimeout, nil)
	if err != nil {
		lease.Release()
		return nil, nil, err
	}
	parts := make([][]broker.Record, s.partitions)
	for _, r := range recs {
		parts[r.Partition] = append(parts[r.Partition], r)
	}
	return fromPartitions(parts), lease, nil
}

// commit commits everything the consumer has polled; call it after a
// batch's actions have completed to preserve exactly-once processing.
func (s *brokerSource) commit() error {
	return s.consumer.CommitOffsets(s.consumer.PositionsInto(nil))
}
