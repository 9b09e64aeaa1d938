package netbroker

import (
	"encoding/json"
	"errors"
	"fmt"
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
	c      *Client
	group  string
	member string

	// conn carries the group's strictly ordered control RPCs (join,
	// commit, heartbeat, leave); fetch carries only polls. An rpcConn is
	// held for a whole round-trip, and the server parks a fetch until
	// records are visible, so on one connection every commit and
	// heartbeat would queue behind the parked fetch.
	conn, fetch connSlot

	// fetchReq and fetchResp are the polling goroutine's messages, kept
	// for their capacity; recv is the buffer its next fetch response is
	// read into, swapped for a released lease's when a poll lends it out.
	fetchReq  fetchReq
	fetchResp fetchResp
	recv      []byte

	// hbReq and hbResp are the heartbeat goroutine's messages.
	hbReq  heartbeatReq
	hbResp heartbeatResp

	// commit is CommitOffsets' messages. Commits may come from any
	// goroutine, hence its own lock.
	commit struct {
		sync.Mutex
		req  commitReq
		resp commitResp
	}

	// lag is Lag's scratch: its messages and the read positions of the
	// partitions it asks about. Lag runs on a shard's goroutine and on
	// whatever goroutine totals the service's lag, hence its own lock.
	lag struct {
		sync.Mutex
		req  hwReq
		resp hwResp
		pos  []int64
	}

	mu        sync.Mutex
	gen       int64
	assigned  []int
	positions map[int]int64
	next      int
	closed    bool
	// partitions is the topic's partition count and pace the heartbeat
	// interval, both as the last join handed them out.
	partitions int
	pace       time.Duration

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
	c.leaderSlot(&cons.conn)
	c.leaderSlot(&cons.fetch)
	if err := cons.join(); err != nil {
		return nil, err
	}
	cons.hbWG.Add(1)
	go cons.heartbeatLoop()
	return cons, nil
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
// into *rbuf (see callWire). A transport failure or a leader redirect
// drops the connection and, the leader having moved or died, its
// sibling: both re-aim at the next call.
func (k *Consumer) callOn(slot *connSlot, op byte, req request, resp response, rbuf *[]byte) error {
	dropped, err := slot.call(op, req, resp, rbuf)
	if dropped {
		k.conn.drop(nil)
		k.fetch.drop(nil)
	}
	return err
}

// join (re)joins the group at the current leader and installs the
// assignment its one answer carries: partitions, generation, the
// committed offsets every partition is re-sought to, and the heartbeat
// pace.
func (k *Consumer) join() error {
	var resp joinResp
	req := joinReq{Group: k.group, Topic: k.c.topic, Member: k.member}
	if err := k.call(opJoin, req, &resp); err != nil {
		return err
	}
	if resp.Heartbeat <= 0 {
		return fmt.Errorf("netbroker: join answered heartbeat pace %s", resp.Heartbeat)
	}
	k.mu.Lock()
	k.partitions = resp.Partitions
	k.gen = resp.Gen
	k.assigned = resp.Parts
	k.positions = resp.Offsets
	k.next = 0
	k.pace = resp.Heartbeat
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
	pace := k.heartbeatPace()
	tick := time.NewTicker(pace)
	defer tick.Stop()
	for {
		select {
		case <-k.stopc:
			return
		case <-tick.C:
		}
		// A rejoin, here or in RefreshAssignment, may have brought
		// another server's pace.
		if p := k.heartbeatPace(); p != pace {
			pace = p
			tick.Reset(pace)
		}
		stale, err := k.heartbeat()
		if err == nil {
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

// heartbeatPace is the heartbeat interval of the member's last join.
func (k *Consumer) heartbeatPace() time.Duration {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.pace
}

// heartbeat runs one heartbeat round trip and reports whether the
// coordinator's generation has moved past the member's.
//
//alarmvet:hotpath
func (k *Consumer) heartbeat() (stale bool, err error) {
	req, resp := &k.hbReq, &k.hbResp
	k.mu.Lock()
	req.Gen = k.gen
	k.mu.Unlock()
	req.Group, req.Member = k.group, k.member
	if err := k.callOn(&k.conn, opHeartbeat, req, resp, nil); err != nil {
		return false, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return resp.Gen != k.gen, nil
}

// Rebalances returns the channel signalled when the assignment is
// stale (group membership changed, or the member rejoined after a
// broker failover).
func (k *Consumer) Rebalances() <-chan struct{} { return k.rebalance }

// RefreshAssignment re-reads the assignment by joining again: a join
// under the member's own id keeps one member and moves no generation,
// and one whose session the janitor expired, while the member was
// partitioned say, adds it back. The serving pipeline treats a refresh
// error as fatal to the shard, so transient failures — the
// mid-election window where no node answers — are retried against
// wherever the leader now is for the client's RetryTimeout. Only an
// outage outlasting that budget (or a non-retriable refusal) surfaces.
func (k *Consumer) RefreshAssignment() error {
	return k.c.retry(k.stopc, k.join)
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
	k.c.fetches.Add(1)
	if err := k.callOn(&k.fetch, opFetch, req, resp, &k.recv); err != nil {
		k.c.emptyFetches.Add(1)
		switch {
		case errors.Is(err, broker.ErrBelowLogStart):
			// Only a stale assignment's position falls below the log
			// start, its group having committed past it: the refresh
			// this signal asks for resumes at the start.
			k.signalRebalance()
		case !errors.Is(err, broker.ErrInvalidOffset):
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
		k.c.emptyFetches.Add(1)
		return dst, broker.NoLease(), nil
	}
	// resp.Recs, and so dst, point into k.recv: the lease takes it and
	// the next fetch reads into the buffer of a lease released earlier.
	lease, spare := k.leases.Lend(k.recv)
	k.recv = spare
	return dst, lease, nil
}

// CommitOffsets durably records offsets under the consumer's current
// generation. A commit interrupted by a failover reports
// ErrRebalanceStale — the records are persisted but not committed, so
// the successor assignment re-reads them (at-least-once).
//
//alarmvet:hotpath
func (k *Consumer) CommitOffsets(offsets map[int]int64) error {
	k.mu.Lock()
	gen := k.gen
	k.mu.Unlock()
	// Commits already take turns on the control connection, so one set
	// of messages, held across the round trip, serves them all.
	cm := &k.commit
	cm.Lock()
	defer cm.Unlock()
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

// Lag totals the records between positions and the high watermarks.
//
//alarmvet:hotpath
func (k *Consumer) Lag() (int64, error) {
	s := &k.lag
	s.Lock()
	defer s.Unlock()
	req, resp := &s.req, &s.resp
	k.mu.Lock()
	req.Parts, s.pos = append(req.Parts[:0], k.assigned...), s.pos[:0]
	for _, p := range req.Parts {
		s.pos = append(s.pos, k.positions[p])
	}
	k.mu.Unlock()
	if len(req.Parts) == 0 {
		return 0, nil
	}
	req.Topic = k.c.topic
	if err := k.callOn(&k.conn, opHighWatermarks, req, resp, nil); err != nil {
		return 0, err
	}
	var lag int64
	for i, pos := range s.pos {
		if i < len(resp.HWs) && resp.HWs[i] > pos {
			lag += resp.HWs[i] - pos
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
	k.conn.close()
	k.fetch.close()
}
