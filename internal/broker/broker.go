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
	"math"
	"slices"
	"strings"
	"sync"
	"time"
	"unsafe"

	"alarmverify/internal/lane"
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
	// ErrBelowLogStart reports a read below a partition's log start:
	// those records were released once every group had committed past
	// them (and, replicated, every follower had them).
	ErrBelowLogStart = errors.New("broker: offset below the log start")
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
	// holdMu orders a partition's log start rising (raiseStart) with a
	// group joining the topic: a group that joins after a rise reads
	// the new start, one that joins before it holds the log where it
	// is. groups are the consumer groups bound to the topic.
	holdMu sync.Mutex
	groups []*group
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
// blocks and appends nothing when offset is at the high watermark; an
// offset below the log start fails with ErrBelowLogStart. The records'
// keys and values are views of the partition's arena: with a non-nil
// pins they stay valid until pins.Release, without one only until the
// log start passes them. With capacity in dst and pins nothing is
// allocated.
func (t *Topic) FetchInto(p int, offset int64, max int, dst []Record, pins *Pins) ([]Record, error) {
	if p < 0 || p >= len(t.partitions) {
		return dst, fmt.Errorf("%w: partition %d", ErrInvalidOffset, p)
	}
	return t.partitions[p].read(offset, max, true, dst, pins)
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
func (t *Topic) FetchLogInto(p int, offset int64, max int, dst []Record, pins *Pins) ([]Record, error) {
	if p < 0 || p >= len(t.partitions) {
		return dst, fmt.Errorf("%w: partition %d", ErrInvalidOffset, p)
	}
	return t.partitions[p].read(offset, max, false, dst, pins)
}

// LogStart returns partition p's log start offset, below which its
// records are released, and the epoch of the record just below it (0
// at offset 0).
func (t *Topic) LogStart(p int) (start, epoch int64, err error) {
	if p < 0 || p >= len(t.partitions) {
		return 0, 0, fmt.Errorf("%w: partition %d", ErrInvalidOffset, p)
	}
	start, epoch = t.partitions[p].logStart()
	return start, epoch, nil
}

// SetLogStartFloor caps partition p's log start at off, beside the
// groups' commits: the replicated broker holds a leader's log at the
// lowest verified follower match and a follower's at the leader's log
// start. A negative off removes the cap (the single-process default).
// The floor may fall; the log start never does.
func (t *Topic) SetLogStartFloor(p int, off int64) {
	if p < 0 || p >= len(t.partitions) {
		return
	}
	part := t.partitions[p]
	part.mu.Lock()
	// Only a floor that capped the start can let it rise by rising: one
	// above the start left the groups' commits or the visible end to cap
	// it, and a commit raises the start itself.
	rose := part.floor >= 0 && (off < 0 || off > part.start && part.floor <= part.start)
	part.floor = off
	part.mu.Unlock()
	if rose {
		t.raiseStart(p)
	}
}

// ResetLog moves partition p, whose log ends below start, to start: its
// records are dropped and the next one appended is start's, the record
// before it having been appended in epoch. A follower whose log ends
// below the leader's log start resets to it, since the records between
// are released on the leader. A log that reaches start is left alone.
func (t *Topic) ResetLog(p int, start, epoch int64) error {
	if p < 0 || p >= len(t.partitions) {
		return fmt.Errorf("%w: partition %d", ErrInvalidOffset, p)
	}
	part := t.partitions[p]
	part.mu.Lock()
	defer part.mu.Unlock()
	if part.endLocked() < start {
		part.resetLocked(start, epoch)
	}
	return nil
}

// raiseStart raises partition p's log start to its low-water mark: the
// lowest offset a consumer group bound to the topic has not committed
// there (a group with no commit holds the log where it is), capped by
// the partition's floor and visible end. A topic no group has joined
// keeps every record.
func (t *Topic) raiseStart(p int) {
	if p < 0 || p >= len(t.partitions) {
		return
	}
	t.holdMu.Lock()
	defer t.holdMu.Unlock()
	if len(t.groups) == 0 {
		return
	}
	low := int64(math.MaxInt64)
	for _, g := range t.groups {
		g.mu.Lock()
		low = min(low, g.committed[p])
		g.mu.Unlock()
	}
	part := t.partitions[p]
	part.mu.Lock()
	part.advanceStartLocked(low)
	part.mu.Unlock()
}

// bind registers a group created on the topic; see holdMu.
func (t *Topic) bind(g *group) {
	t.holdMu.Lock()
	t.groups = append(t.groups, g)
	t.holdMu.Unlock()
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

// partition is a single log of records; consumers assigned to it
// park on their own wake channels, which the partition signals
// whenever what they may read changes (see wakeLocked). The log keeps
// the records from its log start to its end: those below the start are
// released (see advanceStartLocked).
type partition struct {
	topic string
	index int
	clock func() time.Time

	mu sync.Mutex
	// records holds the record headers, offset o at row o-origin, in
	// chunks an append never copies (hdrs is their slab). origin is 0
	// but on a follower a reset (resetLocked) moved its log.
	records lane.Lane[entry]
	hdrs    lane.Slab[entry]
	origin  int64
	// start is the log start offset: a read below it fails with
	// ErrBelowLogStart. startEpoch is the epoch of the record at start-1
	// (0 at 0), what EpochAt and LogTail answer for it once released.
	start, startEpoch int64
	// floor caps the log start (-1: no cap); see Topic.SetLogStartFloor.
	floor int64
	// arena owns the payload bytes of appended records: append copies
	// keys and values in, so the log never aliases producer buffers and
	// leased fetches can hand out stable views (see lease.go).
	arena valueArena
	// pins counts the readers holding views of the arena (a lease, a
	// wire read between its fetch and its encode): while one is out, a
	// released block carries no new appends.
	pins int
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
		floor:   -1,
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

// endLocked returns the log's end offset, one past its last record.
// Caller holds p.mu.
func (p *partition) endLocked() int64 { return p.origin + int64(p.records.Len()) }

// visibleEndLocked returns the first offset consumers may NOT read:
// the log's end clamped to the visible limit. Caller holds p.mu.
func (p *partition) visibleEndLocked() int64 {
	end := p.endLocked()
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
	return p.endLocked()
}

func (p *partition) logStart() (start, epoch int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.start, p.startEpoch
}

func (p *partition) logTail() (size, lastEpoch int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.endLocked()
	if n == p.start {
		return n, p.startEpoch
	}
	return n, p.records.At(int(n - 1 - p.origin)).epoch
}

func (p *partition) epochAt(off int64) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	end := p.endLocked()
	switch {
	case off < 0 || off >= end:
		return 0, fmt.Errorf("%w: offset %d (log %d)", ErrInvalidOffset, off, end)
	case off == p.start-1:
		return p.startEpoch, nil
	case off < p.start:
		return 0, fmt.Errorf("%w: offset %d (log start %d)", ErrBelowLogStart, off, p.start)
	}
	return p.records.At(int(off - p.origin)).epoch, nil
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
			return p.endLocked(), nil
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
	if end := p.endLocked(); recs[0].Offset != end {
		return fmt.Errorf("%w: replica append at %d (log %d)", ErrInvalidOffset, recs[0].Offset, end)
	}
	p.installLocked(recs, time.Time{})
	return nil
}

// installLocked appends recs at the end of the log, stamping now on
// the records without a timestamp (a zero now leaves them as they
// are), wakes the partition's consumers and returns the first record's
// offset. Caller holds p.mu.
//
//alarmvet:hotpath
func (p *partition) installLocked(recs []Record, now time.Time) int64 {
	base := p.endLocked()
	for i := range recs {
		r := &recs[i]
		ts := r.Timestamp
		if ts.IsZero() {
			ts = now
		}
		e := entry{ts: stamp(ts), epoch: r.Epoch, klen: uint32(len(r.Key)), vlen: uint32(len(r.Value))}
		// Copy payloads into the partition arena: the caller may reuse
		// its buffers the moment the append returns.
		e.block, e.off = p.arena.hold(r.Key, r.Value, base+int64(i))
		p.records.Push(e, &p.hdrs)
	}
	p.wakeLocked()
	return base
}

// read appends up to max records starting at offset to dst: up to the
// visible limit when committed is set (what consumers may see), up to
// the end of the log otherwise (the replication read path — followers
// copy records before they are committed). A read that returns records
// pins the partition into pins, when it is not nil, under the same
// lock: no block a record views is reused before pins.Release.
func (p *partition) read(offset int64, max int, committed bool, dst []Record, pins *Pins) ([]Record, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	end := p.endLocked()
	switch {
	case offset < 0 || offset > end:
		return dst, fmt.Errorf("%w: offset %d (log %d)", ErrInvalidOffset, offset, end)
	case offset < p.start:
		return dst, fmt.Errorf("%w: offset %d (log start %d)", ErrBelowLogStart, offset, p.start)
	}
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
	if pins != nil {
		p.pins++
		pins.add(p)
	}
	// Each Record is written in its place in dst, every field set: one
	// built aside would be copied twice. Entries are walked a chunk at a
	// time, and consecutive records mostly share a block.
	dst = slices.Grow(dst, int(end-offset))
	blk, buf := ^uint32(0), []byte(nil)
	for o := offset; o < end; {
		run := p.records.Run(int(o - p.origin))
		run = run[:min(int64(len(run)), end-o)]
		for i := range run {
			e := &run[i]
			dst = dst[:len(dst)+1]
			r := &dst[len(dst)-1]
			r.Topic, r.Partition, r.Offset, r.Epoch = p.topic, p.index, o+int64(i), e.epoch
			r.Timestamp = unstamp(e.ts)
			r.Key, r.Value = nil, nil
			if e.klen+e.vlen == 0 {
				continue
			}
			if e.block != blk {
				blk, buf = e.block, p.arena.block(e.block)
			}
			k, v := e.off+e.klen, e.off+e.klen+e.vlen
			if e.klen > 0 {
				r.Key = buf[e.off:k:k]
			}
			if e.vlen > 0 {
				r.Value = buf[k:v:v]
			}
		}
		o += int64(len(run))
	}
	return dst, nil
}

// unpin ends one pin a read took; the last one out hands the blocks
// released under the pins to the next appends.
func (p *partition) unpin() {
	p.mu.Lock()
	if p.pins--; p.pins == 0 {
		p.arena.unhold()
	}
	p.mu.Unlock()
}

// truncate drops records at and past off — only ever an uncommitted
// suffix (off below the visible limit, or the log start, is an
// invariant violation).
func (p *partition) truncate(off int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if off < p.start || (p.visible >= 0 && off < p.visible) {
		return fmt.Errorf("%w: truncate to %d below visible %d or log start %d", ErrInvalidOffset, off, p.visible, p.start)
	}
	if off < p.endLocked() {
		p.records.Truncate(int(off-p.origin), &p.hdrs)
	}
	return nil
}

// advanceStartLocked raises the log start to off, capped by the floor
// and the visible end: the record headers below it go with whole
// chunks, and the arena blocks wholly below it are released. Caller
// holds p.mu.
func (p *partition) advanceStartLocked(off int64) {
	if p.floor >= 0 {
		off = min(off, p.floor)
	}
	off = min(off, p.visibleEndLocked())
	if off <= p.start {
		return
	}
	p.startEpoch = p.records.At(int(off - 1 - p.origin)).epoch
	p.start = off
	p.records.Release(int(off - p.origin))
	p.arena.release(off, p.pins > 0)
}

// resetLocked empties a log that ends below start and moves it there:
// the next record is start's, and the one before it was appended in
// epoch. Caller holds p.mu.
func (p *partition) resetLocked(start, epoch int64) {
	p.records = lane.Lane[entry]{}
	p.origin, p.start, p.startEpoch = start, start, epoch
	p.arena.release(math.MaxInt64, p.pins > 0)
	p.wakeLocked()
}

// retained returns the bytes the log holds: its header chunks, each at
// its own capacity, and its arena's blocks.
func (p *partition) retained() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, rows := p.records.Chunks()
	return int64(rows)*int64(unsafe.Sizeof(entry{})) + p.arena.bytes()
}

// entry is a record's header in the log: its timestamp, its epoch and
// where the arena holds its key and value (key first, then value, in
// one block). An entry holds no pointer, so the collector never scans
// the log's headers, and at 32 bytes it is less than a third of a
// Record; read builds the Record a reader sees from it.
type entry struct {
	ts, epoch  int64
	block, off uint32 // the block's sequence number, the key's place in it
	klen, vlen uint32
}

// noTime is what stamp stores for the zero time, whose UnixNano is
// undefined.
const noTime = math.MinInt64

// stamp and unstamp carry a record's timestamp through an entry: wall
// clock nanoseconds, as the wire carries it.
func stamp(t time.Time) int64 {
	if t.IsZero() {
		return noTime
	}
	return t.UnixNano()
}

func unstamp(ns int64) time.Time {
	if ns == noTime {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func (p *partition) close() {
	p.mu.Lock()
	p.closed = true
	p.wakeLocked()
	p.mu.Unlock()
}
