package broker

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// group is the coordinator state for one consumer group: membership,
// partition assignment generation, and committed offsets. Its members
// are in-process Consumers and the wire server's remote sessions alike.
type group struct {
	mu         sync.Mutex
	topic      *Topic
	members    []string
	generation int64
	committed  map[int]int64 // partition -> next offset to consume
	// watchers holds the rebalance channel of each in-process member: a
	// buffered send on membership change is the notification
	// Consumer.Rebalances hands out. Remote members hold none; they
	// compare generations in their heartbeats.
	watchers map[string]chan struct{}
}

// notifyLocked signals every watcher except the member that caused the
// change (it learns its assignment synchronously). Callers hold g.mu.
func (g *group) notifyLocked(except string) {
	for m, ch := range g.watchers {
		if m != except {
			signal(ch)
		}
	}
}

func (b *Broker) groupFor(name string, t *Topic) (*group, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	g, ok := b.groups[name]
	if !ok {
		g = &group{topic: t, committed: make(map[int]int64), watchers: make(map[string]chan struct{})}
		b.groups[name] = g
		t.bind(g)
		return g, nil
	}
	if g.topic != t {
		return nil, fmt.Errorf("broker: group %q already bound to topic %q", name, g.topic.Name())
	}
	return g, nil
}

// lookupGroup returns the named group, which a member must have
// created by joining.
func (b *Broker) lookupGroup(name string) (*group, error) {
	b.mu.RLock()
	g, ok := b.groups[name]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownGroup, name)
	}
	return g, nil
}

// join adds a member, bumps the assignment generation and notifies the
// other members; a join under an id already present keeps one member
// and moves nothing. Either way a non-nil watch becomes the member's
// rebalance channel.
func (g *group) join(member string, watch chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if watch != nil {
		g.watchers[member] = watch
	}
	if slices.Contains(g.members, member) {
		return
	}
	g.members = append(g.members, member)
	sort.Strings(g.members)
	g.generation++
	g.notifyLocked(member)
}

// leave removes a member, bumps the assignment generation and notifies
// the survivors; leaving as a non-member changes nothing.
func (g *group) leave(member string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	i := slices.Index(g.members, member)
	if i < 0 {
		return
	}
	g.members = slices.Delete(g.members, i, i+1)
	delete(g.watchers, member)
	g.generation++
	g.notifyLocked(member)
}

// assignment computes the range assignment of partitions to a member
// under the current generation, with each assigned partition's
// committed offset read under the same lock: the positions a member
// resumes from belong to the generation it commits under. A partition
// without a commit, or one committed below the log start, starts at the
// log start.
func (g *group) assignment(member string) (parts []int, offsets map[int]int64, gen int64, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	idx := slices.Index(g.members, member)
	if idx < 0 {
		return nil, nil, 0, ErrNotMember
	}
	n := g.topic.Partitions()
	offsets = make(map[int]int64, n/len(g.members)+1)
	for p := 0; p < n; p++ {
		if p%len(g.members) == idx {
			parts = append(parts, p)
			start, _ := g.topic.partitions[p].logStart()
			offsets[p] = max(g.committed[p], start)
		}
	}
	return parts, offsets, g.generation, nil
}

// commit records offsets under generation gen and raises the log start
// of each partition committed.
func (g *group) commit(gen int64, offsets map[int]int64) error {
	g.mu.Lock()
	if gen != g.generation {
		g.mu.Unlock()
		return ErrRebalanceStale
	}
	for p, off := range offsets {
		if off > g.committed[p] {
			g.committed[p] = off
		}
	}
	g.mu.Unlock()
	for p := range offsets {
		g.topic.raiseStart(p)
	}
	return nil
}

// committedSnapshot copies the group's committed offsets for every
// partition that has one.
func (g *group) committedSnapshot() map[int]int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[int]int64, len(g.committed))
	for p, off := range g.committed {
		out[p] = off
	}
	return out
}

// GroupConsumer is the consumer-group contract the serving pipeline
// programs against: everything a shard needs to poll, commit with
// generation fencing, and follow rebalances. *Consumer implements it
// in-process; internal/netbroker implements it over a TCP framing of
// the same operations, so shards run unmodified against a remote
// replicated broker.
type GroupConsumer interface {
	// PollLeased appends records into dst under a lease over their
	// payload memory; see Consumer.PollLeased.
	PollLeased(max int, timeout time.Duration, dst []Record) ([]Record, *Lease, error)
	// CommitOffsets durably records offsets under the current
	// generation; stale generations fail with ErrRebalanceStale.
	CommitOffsets(offsets map[int]int64) error
	// PositionsInto fills dst with current read positions.
	PositionsInto(dst map[int]int64) map[int]int64
	// Lag totals records between positions and high watermarks.
	Lag() (int64, error)
	// Rebalances is the channel signalled when the assignment is stale.
	Rebalances() <-chan struct{}
	// RefreshAssignment re-reads the assignment after a rebalance.
	RefreshAssignment() error
	// Assignment returns the currently assigned partitions.
	Assignment() []int
	// LeaseStats snapshots the free list PollLeased draws leases from.
	LeaseStats() LeaseStats
	// Close leaves the group.
	Close()
}

// SeedGroupOffset installs one replicated committed offset for a group
// on topic t, keeping the larger of the existing and incoming value
// without bumping the generation (it is recovery state, not a
// rebalance). A freshly promoted replica leader has been fed the
// offsets the old leader gossiped this way, so consumer groups resume
// near where they left off instead of at zero. An offset beyond the
// local log is clamped to the log size.
func (b *Broker) SeedGroupOffset(groupName string, t *Topic, p int, off int64) error {
	g, err := b.groupFor(groupName, t)
	if err != nil {
		return err
	}
	if size, err := t.LogSize(p); err == nil && off > size {
		off = size
	}
	g.mu.Lock()
	if off > g.committed[p] {
		g.committed[p] = off
	}
	g.mu.Unlock()
	t.raiseStart(p)
	return nil
}

// Consumer is an in-process shard's member of a consumer group: it
// polls the partitions the group assigns it through PollLeased.
// Positions advance on each poll; progress becomes durable (and
// visible to a successor after a crash/rebalance) only on
// CommitOffsets — the read-committed half of the exactly-once
// contract. One goroutine polls at a time; every other method, Close
// included, may be called from any goroutine beside it. The assigned
// partitions hold the consumer's wake channel and signal it on every
// append, so a consumer must be Closed to be released: dropping one
// without Close leaves its channel registered for the life of the
// topic.
type Consumer struct {
	topic      *Topic
	grp        *group
	id         string
	rebalances chan struct{}
	// wake (capacity 1) is what a poll that found nothing parks on: the
	// assigned partitions signal it (partition.wakeLocked), as do Close
	// and a refreshed assignment. timer is the park's deadline, reused
	// across polls and touched only by the polling goroutine.
	wake  chan struct{}
	timer *time.Timer

	mu        sync.Mutex
	gen       int64
	assigned  []int
	positions map[int]int64
	next      int // round-robin cursor over assigned partitions
	closed    bool

	// leases is the free list PollLeased draws from (see LeaseStats);
	// pins collects a sweep's pins for the lease it lends.
	leases LeasePool
	pins   Pins
}

// NewConsumer joins (or creates) the named consumer group on topic t
// and returns a consumer with its partition assignment. Member ids
// must be unique within a group: the coordinator keys members and
// their rebalance channels by id.
func NewConsumer(b *Broker, groupName string, t *Topic, id string) (*Consumer, error) {
	g, err := b.groupFor(groupName, t)
	if err != nil {
		return nil, err
	}
	c := &Consumer{topic: t, grp: g, id: id, rebalances: make(chan struct{}, 1), wake: make(chan struct{}, 1)}
	g.join(id, c.rebalances)
	if err := c.refreshAssignment(); err != nil {
		return nil, err
	}
	return c, nil
}

// Rebalances returns the channel signalled whenever group membership
// changes under this consumer. A signal means the current assignment
// is stale: in-flight work should be drained and RefreshAssignment
// called. The channel is buffered (capacity 1); coalesced signals are
// fine because a single refresh observes the latest generation.
func (c *Consumer) Rebalances() <-chan struct{} { return c.rebalances }

// refreshAssignment re-reads the group's assignment for this member,
// seeks its partitions to the committed offsets read with it and moves
// the wake channel to the new partitions; a poll parked under the old
// assignment is woken to sweep the new one. A closed consumer watches
// nothing and stays that way.
func (c *Consumer) refreshAssignment() error {
	parts, offsets, gen, err := c.grp.assignment(c.id)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.unwatchLocked()
	c.gen = gen
	c.assigned = parts
	c.positions = offsets
	for _, p := range parts {
		c.topic.partitions[p].watch(c.wake)
	}
	c.next = 0
	signal(c.wake)
	return nil
}

// unwatchLocked takes the wake channel off the assigned partitions.
// Caller holds c.mu.
func (c *Consumer) unwatchLocked() {
	for _, p := range c.assigned {
		c.topic.partitions[p].unwatch(c.wake)
	}
}

// Assignment returns the partitions currently assigned to this
// consumer.
func (c *Consumer) Assignment() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, len(c.assigned))
	copy(out, c.assigned)
	return out
}

// waitAny parks a poll that found nothing: it reports true as soon as
// an assigned partition can be read past the consumer's position, and
// false once the deadline passes or a wake finds that nothing more can
// arrive (the consumer or one of its partitions closed while the poll
// was parked; a close that predates the poll does not cut it short, so
// polling what is already closed is paced by the timeout). In between
// it waits on the wake channel, so a record costs one channel
// hand-off; the only timer is the deadline's, which fires when nothing
// arrived for the whole timeout (a stale tick from an earlier park
// costs one more sweep). A member without partitions parks the same
// way for its whole timeout, which paces its caller's poll loop.
//
//alarmvet:hotpath
func (c *Consumer) waitAny(deadline time.Time) bool {
	for woken := false; ; woken = true {
		d := time.Until(deadline)
		if d <= 0 {
			return false // a zero-timeout poll has swept once already
		}
		if ready, open := c.readable(); ready || (woken && !open) {
			return ready
		}
		if c.timer == nil {
			c.timer = time.NewTimer(d)
		} else {
			c.timer.Reset(d)
		}
		select {
		case <-c.wake:
			c.timer.Stop()
		case <-c.timer.C:
		}
	}
}

// readable sweeps the assigned partitions without fetching: ready
// means one of them holds a visible record past the consumer's
// position, open that none of them, nor the consumer, has closed.
//
//alarmvet:hotpath
func (c *Consumer) readable() (ready, open bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false, false
	}
	open = true
	for _, p := range c.assigned {
		part := c.topic.partitions[p]
		part.mu.Lock()
		end, closed := part.visibleEndLocked(), part.closed
		part.mu.Unlock()
		if end > c.positions[p] {
			return true, true
		}
		if closed {
			open = false
		}
	}
	return false, open
}

// CommitOffsets durably records the given offsets (captured earlier,
// e.g. when a batch was drained) under the generation of the
// consumer's assignment; after a rebalance it fails with
// ErrRebalanceStale until RefreshAssignment. Pipelined consumers use it
// to commit each batch exactly as far as that batch read, even though
// later batches have already advanced the live positions. A successor
// resumes from the last committed offsets, so records are never
// skipped; the idempotent producer ensures they are never duplicated.
func (c *Consumer) CommitOffsets(offsets map[int]int64) error {
	c.mu.Lock()
	gen := c.gen
	c.mu.Unlock()
	return c.grp.commit(gen, offsets)
}

// PositionsInto clears dst and fills it with the consumer's current
// read positions per assigned partition — the offsets a CommitOffsets
// call would make durable for everything polled so far — and returns it
// (a nil dst allocates). Pipelined consumers reuse one map per pooled
// batch instead of allocating a snapshot per drain.
func (c *Consumer) PositionsInto(dst map[int]int64) map[int]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if dst == nil {
		dst = make(map[int]int64, len(c.positions))
	}
	clear(dst)
	for p, off := range c.positions {
		dst[p] = off
	}
	return dst
}

// Lag returns the total number of records between the consumer's
// position and the high watermark across assigned partitions.
func (c *Consumer) Lag() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lag int64
	for _, p := range c.assigned {
		hw, err := c.topic.HighWatermark(p)
		if err != nil {
			return 0, err
		}
		lag += hw - c.positions[p]
	}
	return lag, nil
}

// Close leaves the group and ends a parked poll. Other members must
// call RefreshAssignment (or be recreated) to pick up the released
// partitions.
func (c *Consumer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.unwatchLocked()
	signal(c.wake)
	c.mu.Unlock()
	c.grp.leave(c.id)
}

// RefreshAssignment re-runs partition assignment after membership
// changes; positions reset to committed offsets.
func (c *Consumer) RefreshAssignment() error { return c.refreshAssignment() }
