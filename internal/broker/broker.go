// Package broker implements the distributed-log substrate of the
// alarm pipeline — the role Apache Kafka plays in the paper (§4.2).
//
// A Broker hosts named topics; each topic is a set of partitions, and
// each partition is an append-only record log addressed by offset.
// Producers append keyed records (the partitioner hashes the key, so
// all alarms of one device stay ordered in one partition); consumer
// groups divide partitions among their members and track committed
// offsets, which together with the idempotent producer gives the
// exactly-once processing semantics the paper relies on ("we neither
// miss an alarm, nor process the same one multiple times", §4.2).
//
// The paper's §5.5.2 lesson — "by default, Kafka streams are not
// partitioned … Spark will not process incoming data in parallel" —
// is reproduced directly: a topic created with one partition serializes
// all downstream work, and repartitioning is the scaling knob.
package broker

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"time"
)

// Common broker errors.
var (
	ErrTopicExists    = errors.New("broker: topic already exists")
	ErrUnknownTopic   = errors.New("broker: unknown topic")
	ErrBadPartitions  = errors.New("broker: partition count must be positive")
	ErrClosed         = errors.New("broker: closed")
	ErrInvalidOffset  = errors.New("broker: invalid offset")
	ErrNotMember      = errors.New("broker: consumer is not a group member")
	ErrRebalanceStale = errors.New("broker: assignment changed, rejoin required")
	ErrUnknownGroup   = errors.New("broker: unknown consumer group")
)

// Record is one entry in a partition log.
type Record struct {
	Topic     string
	Partition int
	Offset    int64
	Key       []byte
	Value     []byte
	Timestamp time.Time
	// Epoch is the replication epoch of the leader that first appended
	// this record (zero in single-process brokers, where no election
	// ever runs). Together with Offset it uniquely identifies a record
	// across the replica set: within one epoch only that epoch's leader
	// appends, so log reconciliation compares (Epoch, Offset) pairs —
	// comparing sizes alone cannot detect equal-length divergent logs.
	Epoch int64
}

// Broker hosts topics and consumer-group coordination state.
type Broker struct {
	mu     sync.RWMutex
	topics map[string]*Topic
	groups map[string]*group
	closed bool
	clock  func() time.Time
}

// New creates an empty broker.
func New() *Broker {
	return &Broker{
		topics: make(map[string]*Topic),
		groups: make(map[string]*group),
		clock:  time.Now,
	}
}

// CreateTopic registers a topic with the given number of partitions.
func (b *Broker) CreateTopic(name string, partitions int) (*Topic, error) {
	if partitions <= 0 {
		return nil, ErrBadPartitions
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if _, ok := b.topics[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrTopicExists, name)
	}
	t := newTopic(name, partitions, b.clock)
	b.topics[name] = t
	return t, nil
}

// Topic returns the named topic.
func (b *Broker) Topic(name string) (*Topic, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTopic, name)
	}
	return t, nil
}

// GroupCommitted returns a snapshot of the named consumer group's
// committed offsets per partition — the coordinator-side view shards
// and monitoring use to audit progress without joining the group.
func (b *Broker) GroupCommitted(group string) (map[int]int64, error) {
	g, err := b.lookupGroup(group)
	if err != nil {
		return nil, err
	}
	return g.committedSnapshot(), nil
}

// JoinGroup adds member to the named consumer group on topic t,
// creating the group if need be, and returns the member's assignment:
// its partitions, their committed offsets and the group's generation,
// read together. A join under an id already present keeps one member
// and moves no generation, so a member re-reads its assignment by
// joining again. It and the Group calls below are the coordinator as
// the network server drives it for remote members, which poll
// client-side and hold no in-process Consumer.
func (b *Broker) JoinGroup(groupName string, t *Topic, member string) (parts []int, offsets map[int]int64, gen int64, err error) {
	g, err := b.groupFor(groupName, t)
	if err != nil {
		return nil, nil, 0, err
	}
	g.join(member, nil)
	return g.assignment(member)
}

// GroupGeneration returns the named group's assignment generation,
// which every membership change bumps: a remote member whose
// assignment is of an older one must refresh it.
func (b *Broker) GroupGeneration(groupName string) (int64, error) {
	g, err := b.lookupGroup(groupName)
	if err != nil {
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.generation, nil
}

// LeaveGroup removes member from the named group; an unknown group or
// member is a no-op.
func (b *Broker) LeaveGroup(groupName, member string) {
	if g, err := b.lookupGroup(groupName); err == nil {
		g.leave(member)
	}
}

// GroupCommit durably records offsets for the named group under an
// explicit generation — a remote member's commit, fenced by the
// generation that member last read. A generation mismatch fails with
// ErrRebalanceStale.
func (b *Broker) GroupCommit(groupName string, gen int64, offsets map[int]int64) error {
	g, err := b.lookupGroup(groupName)
	if err != nil {
		return err
	}
	return g.commit(gen, offsets)
}

// GroupOffset is one committed offset of one consumer group.
type GroupOffset struct {
	Group, Topic string
	Partition    int
	Offset       int64
}

// AppendGroupOffsets appends every consumer group's committed offsets
// to dst, ordered by group and partition — what replication gossips so
// a promoted leader can seed its coordinator. With capacity in dst it
// does not allocate.
func (b *Broker) AppendGroupOffsets(dst []GroupOffset) []GroupOffset {
	base := len(dst)
	b.mu.RLock()
	for name, g := range b.groups {
		g.mu.Lock()
		for p, off := range g.committed {
			dst = append(dst, GroupOffset{Group: name, Topic: g.topic.name, Partition: p, Offset: off})
		}
		g.mu.Unlock()
	}
	b.mu.RUnlock()
	slices.SortFunc(dst[base:], func(x, y GroupOffset) int {
		if c := strings.Compare(x.Group, y.Group); c != 0 {
			return c
		}
		return x.Partition - y.Partition
	})
	return dst
}

// AppendTopics appends every topic to dst, ordered by name. With
// capacity in dst it does not allocate.
func (b *Broker) AppendTopics(dst []*Topic) []*Topic {
	base := len(dst)
	b.mu.RLock()
	for _, t := range b.topics {
		dst = append(dst, t)
	}
	b.mu.RUnlock()
	slices.SortFunc(dst[base:], func(x, y *Topic) int { return strings.Compare(x.name, y.name) })
	return dst
}

// Close shuts the broker down and wakes all blocked consumers. The log
// lives in memory, so nothing can fail to flush: the error is always
// nil.
func (b *Broker) Close() error {
	b.mu.Lock()
	topics := make([]*Topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.closed = true
	b.mu.Unlock()
	for _, t := range topics {
		for _, p := range t.partitions {
			p.close()
		}
	}
	return nil
}

// Topic is a named, partitioned log.
type Topic struct {
	name       string
	partitions []*partition
}

func newTopic(name string, n int, clock func() time.Time) *Topic {
	t := &Topic{name: name, partitions: make([]*partition, n)}
	for i := range t.partitions {
		t.partitions[i] = newPartition(name, i, clock)
	}
	return t
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// Partitions returns the number of partitions.
func (t *Topic) Partitions() int { return len(t.partitions) }

// HighWatermark returns the next offset to be written in partition p.
func (t *Topic) HighWatermark(p int) (int64, error) {
	if p < 0 || p >= len(t.partitions) {
		return 0, fmt.Errorf("%w: partition %d", ErrInvalidOffset, p)
	}
	return t.partitions[p].highWatermark(), nil
}

// FetchInto appends up to max records of partition p, starting at
// offset, to dst, which it returns as it was on an error. It never
// blocks and appends nothing when offset is at the high watermark. The
// records' keys and values are views of the partition's arena, which is
// never rewritten: they stay valid for as long as the caller keeps
// them, and with capacity in dst nothing is allocated.
func (t *Topic) FetchInto(p int, offset int64, max int, dst []Record) ([]Record, error) {
	if p < 0 || p >= len(t.partitions) {
		return dst, fmt.Errorf("%w: partition %d", ErrInvalidOffset, p)
	}
	return t.partitions[p].read(offset, max, true, dst)
}

// Append appends a batch to partition p with explicit idempotence
// metadata: producerID/baseSeq deduplicate retried batches exactly as
// Producer does (a negative producerID skips deduplication). It is the
// partition-addressed append the network broker server uses, where the
// client owns partitioning and sequence allocation. The returned base
// is the offset of the batch's first record.
func (t *Topic) Append(p int, producerID, baseSeq int64, recs []Record) (int64, error) {
	if p < 0 || p >= len(t.partitions) {
		return 0, fmt.Errorf("%w: partition %d", ErrInvalidOffset, p)
	}
	return t.partitions[p].append(producerID, baseSeq, recs)
}

// AppendReplica installs replicated records at exactly their leader
// offsets: recs must start at this partition's current log size (the
// follower pulls sequentially) and carry the leader's timestamps.
// Idempotence state is not replicated — a replica log accepts what the
// leader committed, deduplication already happened there.
func (t *Topic) AppendReplica(p int, recs []Record) error {
	if p < 0 || p >= len(t.partitions) {
		return fmt.Errorf("%w: partition %d", ErrInvalidOffset, p)
	}
	return t.partitions[p].appendReplica(recs)
}

// Truncate discards partition p's records at and past off — the
// follower-side reconciliation at an epoch change, dropping an
// uncommitted suffix the new leader never saw. Truncating below the
// consumer-visible limit (committed records) is an invariant violation
// and fails.
func (t *Topic) Truncate(p int, off int64) error {
	if p < 0 || p >= len(t.partitions) {
		return fmt.Errorf("%w: partition %d", ErrInvalidOffset, p)
	}
	return t.partitions[p].truncate(off)
}

// LogSize returns the true record count of partition p, regardless of
// the consumer-visible limit — the replication protocol's view of the
// log (followers pull to the leader's LogSize, not its commit index).
func (t *Topic) LogSize(p int) (int64, error) {
	if p < 0 || p >= len(t.partitions) {
		return 0, fmt.Errorf("%w: partition %d", ErrInvalidOffset, p)
	}
	return t.partitions[p].logSize(), nil
}

// LogTail returns partition p's log size together with the
// replication epoch of its last record (both zero for an empty log).
// The pair is the log's position in the election order: a log with a
// higher last epoch is more up to date than a longer log whose tail is
// older, exactly as in Raft's up-to-date comparison.
func (t *Topic) LogTail(p int) (size, lastEpoch int64, err error) {
	if p < 0 || p >= len(t.partitions) {
		return 0, 0, fmt.Errorf("%w: partition %d", ErrInvalidOffset, p)
	}
	size, lastEpoch = t.partitions[p].logTail()
	return size, lastEpoch, nil
}

// EpochAt returns the replication epoch of the record at offset off in
// partition p. Replication uses it as the prefix-consistency check: a
// follower's log of size s is a true prefix of the leader's iff the
// epochs at offset s-1 agree ((epoch, offset) identifies a record).
func (t *Topic) EpochAt(p int, off int64) (int64, error) {
	if p < 0 || p >= len(t.partitions) {
		return 0, fmt.Errorf("%w: partition %d", ErrInvalidOffset, p)
	}
	return t.partitions[p].epochAt(off)
}

// FetchLogInto reads up to max records from partition p starting at
// offset into dst, under FetchInto's terms but ignoring the
// consumer-visible limit — the replication fetch: followers must copy
// records before they are quorum-committed.
func (t *Topic) FetchLogInto(p int, offset int64, max int, dst []Record) ([]Record, error) {
	if p < 0 || p >= len(t.partitions) {
		return dst, fmt.Errorf("%w: partition %d", ErrInvalidOffset, p)
	}
	return t.partitions[p].read(offset, max, false, dst)
}

// SetVisibleLimit bounds the offsets consumers may observe in
// partition p: fetches and high-watermark reads clamp to it, and
// blocking waits do not wake for records past it. The replicated
// broker advances it to the quorum commit index, so consumers only
// ever see records that survive a leader failover. The limit is
// monotonic (a lower value is ignored); a negative limit means
// unbounded — the single-process default.
func (t *Topic) SetVisibleLimit(p int, off int64) {
	if p < 0 || p >= len(t.partitions) {
		return
	}
	t.partitions[p].setVisibleLimit(off)
}

// partitionFor hashes a key onto a partition (FNV-1a, like Kafka's
// default murmur-based partitioner in spirit: stable and uniform).
func (t *Topic) partitionFor(key []byte) int {
	return PartitionForKey(key, len(t.partitions))
}

// PartitionForKey is the broker's partitioner as a pure function:
// FNV-1a over the key modulo the partition count, or -1 for an empty
// key (callers round-robin those). Remote producers partition
// client-side with it, so a record lands on the same partition whether
// it was appended in-process or over the wire.
func PartitionForKey(key []byte, partitions int) int {
	if len(key) == 0 || partitions <= 0 {
		return -1
	}
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(partitions))
}

// partition is a single append-only log; consumers assigned to it
// park on their own wake channels, which the partition signals
// whenever what they may read changes (see wakeLocked).
type partition struct {
	topic string
	index int
	clock func() time.Time

	mu      sync.Mutex
	records []Record
	// arena owns the payload bytes of appended records: append copies
	// keys and values in, so the log never aliases producer buffers and
	// leased fetches can hand out stable views (see lease.go).
	arena valueArena
	// seqs tracks the highest sequence number seen per producer ID,
	// making Append idempotent across producer retries.
	seqs   map[int64]int64
	closed bool
	// visible bounds the offsets consumers may observe (-1 means
	// unbounded). The replicated broker keeps it at the quorum commit
	// index; see Topic.SetVisibleLimit.
	visible int64
	// waiters holds the wake channel (capacity 1) of every consumer
	// this partition is currently assigned to.
	waiters []chan struct{}
}

func newPartition(topic string, index int, clock func() time.Time) *partition {
	return &partition{
		topic:   topic,
		index:   index,
		clock:   clock,
		seqs:    make(map[int64]int64),
		visible: -1,
	}
}

// wakeLocked tells every consumer assigned this partition that what
// it may read here has changed: a record was appended, the visible
// limit moved, or the partition closed. Caller holds p.mu.
//
//alarmvet:hotpath
func (p *partition) wakeLocked() {
	for _, w := range p.waiters {
		signal(w)
	}
}

// signal leaves a token in a wake channel (capacity 1) without
// blocking. The token is buffered, so a consumer between its sweep and
// its park still finds it; a full channel means one is already
// pending, and the sweep it causes starts after the signaller's
// change, under the same locks, and so sees that change too.
//
//alarmvet:hotpath
func signal(w chan struct{}) {
	select {
	case w <- struct{}{}:
	default:
	}
}

// watch registers a consumer's wake channel with the partition.
func (p *partition) watch(w chan struct{}) {
	p.mu.Lock()
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()
}

// unwatch removes a wake channel registered with watch.
func (p *partition) unwatch(w chan struct{}) {
	p.mu.Lock()
	p.waiters = slices.DeleteFunc(p.waiters, func(x chan struct{}) bool { return x == w })
	p.mu.Unlock()
}

// visibleEndLocked returns the first offset consumers may NOT read:
// the log size clamped to the visible limit. Caller holds p.mu.
func (p *partition) visibleEndLocked() int64 {
	end := int64(len(p.records))
	if p.visible >= 0 && p.visible < end {
		end = p.visible
	}
	return end
}

func (p *partition) highWatermark() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.visibleEndLocked()
}

func (p *partition) logSize() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(len(p.records))
}

func (p *partition) logTail() (size, lastEpoch int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := int64(len(p.records))
	if n == 0 {
		return 0, 0
	}
	return n, p.records[n-1].Epoch
}

func (p *partition) epochAt(off int64) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if off < 0 || off >= int64(len(p.records)) {
		return 0, fmt.Errorf("%w: offset %d (log %d)", ErrInvalidOffset, off, len(p.records))
	}
	return p.records[off].Epoch, nil
}

func (p *partition) setVisibleLimit(off int64) {
	p.mu.Lock()
	if off < 0 {
		p.visible = -1
	} else if p.visible >= 0 && off > p.visible {
		p.visible = off
	} else if p.visible < 0 {
		p.visible = off
	}
	p.wakeLocked()
	p.mu.Unlock()
}

// append adds records to the log, stamping the clock's time on those
// that carry none. producerID/baseSeq implement idempotence: a batch
// whose sequence numbers were already observed is acknowledged without
// being re-appended.
func (p *partition) append(producerID, baseSeq int64, recs []Record) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	if producerID >= 0 {
		last, ok := p.seqs[producerID]
		if ok && baseSeq <= last {
			// Duplicate batch from a retry: already appended.
			return int64(len(p.records)), nil
		}
		p.seqs[producerID] = baseSeq + int64(len(recs)) - 1
	}
	return p.installLocked(recs, p.clock()), nil
}

// appendReplica installs leader records with the leader's timestamps;
// recs[0].Offset must equal the local log size (sequential
// replication).
func (p *partition) appendReplica(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if base := int64(len(p.records)); recs[0].Offset != base {
		return fmt.Errorf("%w: replica append at %d (log %d)", ErrInvalidOffset, recs[0].Offset, base)
	}
	p.installLocked(recs, time.Time{})
	return nil
}

// installLocked appends recs at the end of the log, stamping now on
// the records without a timestamp (a zero now leaves them as they
// are), wakes the partition's consumers and returns the first record's
// offset. Caller holds p.mu.
func (p *partition) installLocked(recs []Record, now time.Time) int64 {
	base := int64(len(p.records))
	for i := range recs {
		r := recs[i]
		r.Topic = p.topic
		r.Partition = p.index
		r.Offset = base + int64(i)
		if r.Timestamp.IsZero() {
			r.Timestamp = now
		}
		// Copy payloads into the partition arena: the caller may reuse
		// its buffers the moment the append returns.
		r.Key = p.arena.hold(r.Key)
		r.Value = p.arena.hold(r.Value)
		p.records = append(p.records, r)
	}
	p.wakeLocked()
	return base
}

// read appends up to max records starting at offset to dst: up to the
// visible limit when committed is set (what consumers may see), up to
// the end of the log otherwise (the replication read path — followers
// copy records before they are committed).
func (p *partition) read(offset int64, max int, committed bool, dst []Record) ([]Record, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if offset < 0 || offset > int64(len(p.records)) {
		return dst, fmt.Errorf("%w: offset %d (log %d)", ErrInvalidOffset, offset, len(p.records))
	}
	end := int64(len(p.records))
	if committed {
		end = p.visibleEndLocked()
	}
	if max < 0 {
		max = 0
	}
	if end-offset > int64(max) {
		end = offset + int64(max)
	}
	if end <= offset {
		return dst, nil
	}
	return append(dst, p.records[offset:end]...), nil
}

// truncate drops records at and past off — only ever an uncommitted
// suffix (off below the visible limit is an invariant violation).
func (p *partition) truncate(off int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if off < 0 || (p.visible >= 0 && off < p.visible) {
		return fmt.Errorf("%w: truncate to %d below visible %d", ErrInvalidOffset, off, p.visible)
	}
	if off < int64(len(p.records)) {
		p.records = p.records[:off]
	}
	return nil
}

func (p *partition) close() {
	p.mu.Lock()
	p.closed = true
	p.wakeLocked()
	p.mu.Unlock()
}
