package netbroker

import (
	"encoding/json"
	"errors"
	"sync"
	"time"

	"alarmverify/internal/broker"
)

// Consumer is the remote half of a consumer-group member: it keeps
// read positions client-side, fetches committed records from the
// leader, commits with generation fencing, and follows rebalances via
// a background heartbeat. It implements broker.GroupConsumer, so the
// serving pipeline's shards run over it unmodified.
//
// Failover behavior: when the leader dies, in-flight polls return
// empty, the heartbeat loop rediscovers the new leader and rejoins the
// group there, and the shard observes a rebalance signal — its barrier
// + RefreshAssignment + resume-from-committed protocol (built for
// in-process rebalances) is exactly what recovers a broker failover
// too. Commits interrupted by the failover report ErrRebalanceStale,
// which the pipeline already counts as benign (at-least-once across
// rebalances).
//
// One goroutine polls at a time (the fetch messages and receive buffer
// below are its scratch); every other method may be called from any
// goroutine beside it.
type Consumer struct {
	c          *Client
	group      string
	member     string
	partitions int

	// conn carries the group's strictly ordered control RPCs (join,
	// assign, commit, committed, heartbeat, leave); fetch carries only
	// polls. An rpcConn is held for a whole round-trip, and the server
	// parks a fetch until records are visible, so on one connection
	// every commit and heartbeat would queue behind the parked fetch.
	connMu sync.Mutex
	conn   *rpcConn
	fetch  *rpcConn

	// fetchReq and fetchResp are the polling goroutine's messages, kept
	// for their capacity; recv is the buffer its next fetch response is
	// read into, swapped for a released lease's when a poll lends it out.
	fetchReq  fetchReq
	fetchResp fetchResp
	recv      []byte

	mu        sync.Mutex
	gen       int64
	assigned  []int
	positions map[int]int64
	next      int
	closed    bool

	rebalance chan struct{}
	stopc     chan struct{}
	hbWG      sync.WaitGroup
	leases    broker.LeasePool
}

// newConsumer joins the group on the leader and starts the heartbeat.
func (c *Client) newConsumer(group, id string) (*Consumer, error) {
	cons := &Consumer{
		c:         c,
		group:     group,
		member:    id,
		positions: make(map[int]int64),
		rebalance: make(chan struct{}, 1),
		stopc:     make(chan struct{}),
	}
	if err := cons.join(); err != nil {
		return nil, err
	}
	cons.hbWG.Add(1)
	go cons.heartbeatLoop()
	return cons, nil
}

// leaderConn returns the connection kept in slot (&k.conn or &k.fetch),
// dialing the current leader when the slot is empty.
func (k *Consumer) leaderConn(slot **rpcConn) (*rpcConn, error) {
	k.connMu.Lock()
	rc := *slot
	k.connMu.Unlock()
	if rc != nil {
		return rc, nil
	}
	leader, err := k.c.discoverLeader()
	if err != nil {
		return nil, err
	}
	rc, err = dialRPC(k.c.addrs[leader], k.c.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	k.connMu.Lock()
	if *slot != nil {
		old := *slot
		k.connMu.Unlock()
		rc.close()
		return old, nil
	}
	*slot = rc
	k.connMu.Unlock()
	return rc, nil
}

// dropConn discards a failed connection and, the leader having moved or
// died, its sibling: both re-aim at the next call. A connection already
// replaced is only closed; nil drops whatever is open.
func (k *Consumer) dropConn(rc *rpcConn) {
	k.connMu.Lock()
	stale := [...]*rpcConn{rc, nil}
	if rc == nil || rc == k.conn || rc == k.fetch {
		stale = [...]*rpcConn{k.conn, k.fetch}
		k.conn, k.fetch = nil, nil
	}
	k.connMu.Unlock()
	for _, c := range stale {
		if c != nil {
			c.close()
		}
	}
}

// call runs one JSON control RPC on the ordered connection.
func (k *Consumer) call(op byte, req any, resp interface{ toErr() error }) error {
	enc, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return k.callOn(&k.conn, op, jsonBody(enc), jsonResp{resp}, nil)
}

// callOn runs one RPC on the connection kept in slot, the response read
// into *rbuf (see callWire); transport failures and leader redirects
// drop the consumer's connections.
func (k *Consumer) callOn(slot **rpcConn, op byte, req request, resp response, rbuf *[]byte) error {
	rc, err := k.leaderConn(slot)
	if err != nil {
		return err
	}
	if err := rc.callWire(op, req, resp, rbuf); err != nil {
		if retriable(err) {
			k.dropConn(rc)
		}
		return err
	}
	return nil
}

// join (re)joins the group at the current leader and installs the
// returned assignment, seeking to the committed offsets.
func (k *Consumer) join() error {
	var resp joinResp
	req := joinReq{Group: k.group, Topic: k.c.topic, Member: k.member}
	if err := k.call(opJoin, req, &resp); err != nil {
		return err
	}
	k.partitions = resp.Partitions
	return k.install(resp.Gen, resp.Parts)
}

// install adopts an assignment and re-seeks every partition to the
// group's committed offset.
func (k *Consumer) install(gen int64, parts []int) error {
	var resp committedResp
	if err := k.call(opCommitted, committedReq{Group: k.group, Parts: parts}, &resp); err != nil {
		return err
	}
	k.mu.Lock()
	k.gen = gen
	k.assigned = append(k.assigned[:0], parts...)
	k.positions = make(map[int]int64, len(parts))
	for _, p := range parts {
		k.positions[p] = resp.Offsets[p]
	}
	k.next = 0
	k.mu.Unlock()
	return nil
}

// signalRebalance posts a (coalescing) rebalance notification.
func (k *Consumer) signalRebalance() {
	select {
	case k.rebalance <- struct{}{}:
	default:
	}
}

// heartbeatLoop keeps the membership alive and watches for generation
// changes; on leader loss it rejoins at the new leader and signals a
// rebalance so the shard re-syncs.
func (k *Consumer) heartbeatLoop() {
	defer k.hbWG.Done()
	tick := time.NewTicker(k.c.opts.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-k.stopc:
			return
		case <-tick.C:
		}
		var resp heartbeatResp
		err := k.call(opHeartbeat, heartbeatReq{Group: k.group, Member: k.member}, &resp)
		if err == nil {
			k.mu.Lock()
			stale := resp.Gen != k.gen
			k.mu.Unlock()
			if stale {
				k.signalRebalance()
			}
			continue
		}
		if errors.Is(err, broker.ErrClosed) {
			return
		}
		// Expired session, deposed leader, or dead connection: rejoin
		// wherever the leader now is. The rejoin changes membership, so
		// always surface a rebalance to the shard.
		if k.join() == nil {
			k.signalRebalance()
		}
	}
}

// Rebalances returns the channel signalled when the assignment is
// stale (group membership changed, or the member rejoined after a
// broker failover).
func (k *Consumer) Rebalances() <-chan struct{} { return k.rebalance }

// RefreshAssignment re-reads the assignment from the coordinator and
// re-seeks to committed offsets. The serving pipeline treats a refresh
// error as fatal to the shard, so transient failures — the mid-election
// window where no node answers, or a session the janitor expired while
// the member was partitioned — are retried against wherever the leader
// now is for the client's RetryTimeout. Only an outage outlasting that
// budget (or a non-retriable refusal) surfaces.
func (k *Consumer) RefreshAssignment() error {
	deadline := time.Now().Add(k.c.opts.RetryTimeout)
	for {
		err := k.refreshOnce()
		if err == nil {
			return nil
		}
		if !errors.Is(err, broker.ErrNotMember) && !retriable(err) {
			return err
		}
		if time.Now().After(deadline) {
			return err
		}
		select {
		case <-k.stopc:
			return broker.ErrClosed
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func (k *Consumer) refreshOnce() error {
	var resp assignResp
	err := k.call(opAssign, assignReq{Group: k.group, Member: k.member}, &resp)
	if err != nil {
		if errors.Is(err, broker.ErrNotMember) || retriable(err) {
			// Session expired or leader moved: rejoin entirely.
			return k.join()
		}
		return err
	}
	return k.install(resp.Gen, resp.Parts)
}

// Assignment returns the partitions currently assigned.
func (k *Consumer) Assignment() []int {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]int, len(k.assigned))
	copy(out, k.assigned)
	return out
}

// PollLeased fetches up to max records across assigned partitions into
// dst, blocking up to timeout server-side when nothing is available.
// The fetch response is read into a buffer the returned lease owns and
// the records' keys and values are views of it. Release puts
// lease and buffer on the consumer's free list and a later fetch is
// read over those bytes, so the in-process contract has teeth here:
// release after the batch is done, touch nothing after. A poll that
// fetched nothing returns the shared released lease; neither kind
// allocates once the free list has grown to the leases out at once.
//
//alarmvet:hotpath
func (k *Consumer) PollLeased(max int, timeout time.Duration, dst []broker.Record) ([]broker.Record, *broker.Lease, error) {
	if max <= 0 {
		max = 1
	}
	req, resp := &k.fetchReq, &k.fetchResp
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return dst, broker.NoLease(), broker.ErrClosed
	}
	n := len(k.assigned)
	req.Parts = req.Parts[:0]
	for i := 0; i < n; i++ {
		p := k.assigned[(k.next+i)%n]
		req.Parts = append(req.Parts, partOffset{P: p, Off: k.positions[p]})
	}
	if n > 0 {
		k.next = (k.next + 1) % n
	}
	k.mu.Unlock()
	if n == 0 {
		// Over-subscribed group (more members than partitions): pace
		// the caller instead of busy-spinning, but not past a Close or a
		// rebalance that may hand it partitions.
		if timeout > 0 {
			timer := time.NewTimer(timeout)
			defer timer.Stop()
			select {
			case <-timer.C:
			case <-k.stopc:
			case <-k.rebalance:
				k.signalRebalance() // the token is the shard's to consume
			}
		}
		return dst, broker.NoLease(), nil
	}
	req.Topic, req.Max, req.WaitMicros = k.c.topic, max, timeout.Microseconds()
	if err := k.callOn(&k.fetch, opFetch, req, resp, &k.recv); err != nil {
		if !errors.Is(err, broker.ErrInvalidOffset) {
			// Failover window: return an empty poll; the heartbeat loop
			// re-aims the consumer and signals a rebalance.
			err = nil
		}
		return dst, broker.NoLease(), err
	}
	base := len(dst)
	k.mu.Lock()
	for _, r := range resp.Recs {
		if pos, ok := k.positions[r.Partition]; !ok || r.Offset != pos {
			// Stale response relative to a concurrent re-seek
			// (rebalance): drop the tail, the next poll re-fetches.
			continue
		}
		k.positions[r.Partition]++
		r.Topic = k.c.topic
		dst = append(dst, r)
	}
	k.mu.Unlock()
	if len(dst) == base {
		return dst, broker.NoLease(), nil
	}
	// resp.Recs, and so dst, point into k.recv: the lease takes it and
	// the next fetch reads into the buffer of a lease released earlier.
	lease, spare := k.leases.Lend(k.recv)
	k.recv = spare
	return dst, lease, nil
}

// commitMsgs is one commit's messages; commits may come from any
// goroutine, so they are pooled rather than kept on the consumer.
type commitMsgs struct {
	req  commitReq
	resp commitResp
}

var commitPool = sync.Pool{New: func() any { return new(commitMsgs) }}

// CommitOffsets durably records offsets under the consumer's current
// generation. A commit interrupted by a failover reports
// ErrRebalanceStale — the records are persisted but not committed, so
// the successor assignment re-reads them (at-least-once).
func (k *Consumer) CommitOffsets(offsets map[int]int64) error {
	k.mu.Lock()
	gen := k.gen
	k.mu.Unlock()
	cm := commitPool.Get().(*commitMsgs)
	defer commitPool.Put(cm)
	cm.req.Group, cm.req.Member, cm.req.Gen, cm.req.Offsets = k.group, k.member, gen, cm.req.Offsets[:0]
	for p, off := range offsets {
		cm.req.Offsets = append(cm.req.Offsets, partOffset{P: p, Off: off})
	}
	err := k.callOn(&k.conn, opCommit, &cm.req, &cm.resp, nil)
	if err == nil {
		return nil
	}
	if errors.Is(err, broker.ErrRebalanceStale) {
		return broker.ErrRebalanceStale
	}
	if errors.Is(err, broker.ErrNotMember) || retriable(err) {
		// The coordinator moved or expired us mid-commit. Surface it as
		// a stale commit — semantically identical for the pipeline — and
		// let the heartbeat re-join and signal the rebalance.
		k.signalRebalance()
		return broker.ErrRebalanceStale
	}
	return err
}

// PositionsInto fills dst with the client-side read positions.
func (k *Consumer) PositionsInto(dst map[int]int64) map[int]int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	if dst == nil {
		dst = make(map[int]int64, len(k.positions))
	}
	clear(dst)
	for p, off := range k.positions {
		dst[p] = off
	}
	return dst
}

// Committed returns the group's committed offsets for the assigned
// partitions.
func (k *Consumer) Committed() map[int]int64 {
	parts := k.Assignment()
	var resp committedResp
	if err := k.call(opCommitted, committedReq{Group: k.group, Parts: parts}, &resp); err != nil {
		return map[int]int64{}
	}
	return resp.Offsets
}

// Lag totals the records between positions and the high watermarks.
func (k *Consumer) Lag() (int64, error) {
	k.mu.Lock()
	parts := make([]int, len(k.assigned))
	copy(parts, k.assigned)
	pos := make([]int64, len(parts))
	for i, p := range parts {
		pos[i] = k.positions[p]
	}
	k.mu.Unlock()
	if len(parts) == 0 {
		return 0, nil
	}
	var resp hwResp
	if err := k.call(opHighWatermarks, hwReq{Topic: k.c.topic, Parts: parts}, &resp); err != nil {
		return 0, err
	}
	var lag int64
	for i := range parts {
		if i < len(resp.HWs) && resp.HWs[i] > pos[i] {
			lag += resp.HWs[i] - pos[i]
		}
	}
	return lag, nil
}

// LeaseStats snapshots the lease free list and the receive buffer under it.
func (k *Consumer) LeaseStats() broker.LeaseStats { return k.leases.Stats() }

// Close leaves the group and stops the heartbeat.
func (k *Consumer) Close() {
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return
	}
	k.closed = true
	k.mu.Unlock()
	close(k.stopc)
	k.hbWG.Wait()
	var resp leaveResp
	// Best-effort: the janitor expires us if the leave never lands.
	_ = k.call(opLeave, leaveReq{Group: k.group, Member: k.member}, &resp)
	k.dropConn(nil)
}
