package netbroker

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/frame"
)

// errTransport tags connection-level failures — dead connections,
// frame I/O errors, protocol violations — apart from server-generated
// semantic errors. Only transport failures (and the explicit
// ErrNotLeader/ErrAckTimeout sentinels) warrant leader rediscovery and
// retry; everything else fails fast.
var errTransport = errors.New("netbroker: transport failure")

// rpcConn is one framed request/response connection. A mutex
// serializes callers: each call writes one frame and reads exactly one
// response frame.
type rpcConn struct {
	mu   sync.Mutex
	c    net.Conn
	fr   *frame.Reader
	rbuf []byte
	wbuf []byte // the request frame, sealed in place
	dead bool
}

func dialRPC(addr string, timeout time.Duration) (*rpcConn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &rpcConn{c: c, fr: frame.NewReader(c, MaxFrame)}, nil
}

// request is a message body that encodes itself: the binary messages of
// wire.go, or an already marshalled JSON body.
type request interface {
	appendTo(dst []byte) []byte
}

// response is a message body that decodes itself and reports the error
// the server put in its envelope.
type response interface {
	decode(b []byte) error
	toErr() error
}

// jsonBody is a control opcode's marshalled request.
type jsonBody []byte

func (b jsonBody) appendTo(dst []byte) []byte { return append(dst, b...) }

// jsonResp decodes a control opcode's response into the struct it wraps.
type jsonResp struct{ v interface{ toErr() error } }

func (r jsonResp) decode(b []byte) error { return json.Unmarshal(b, r.v) }
func (r jsonResp) toErr() error          { return r.v.toErr() }

// call is callWire for the control opcodes, whose bodies are JSON.
func (rc *rpcConn) call(op byte, req any, resp interface{ toErr() error }) error {
	enc, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return rc.callWire(op, jsonBody(enc), jsonResp{resp}, nil)
}

// callWire sends one request frame and decodes the matching response
// out of *rbuf — the caller's receive buffer, grown to fit and handed
// back holding the body, or the connection's own when nil. What
// resp.decode leaves pointing into the body (record keys and values) is
// good for as long as that buffer is left alone: until the next call,
// for the connection's own. The connection mutex is intentionally
// held across the network round-trip: requests on one connection are
// strictly ordered, which is what keeps per-partition sequence numbers
// in order (the same reasoning as the in-process producer's
// per-partition lock).
//
//alarmvet:ignore conn-ordered RPC: rc.mu must span the frame write and the response read so responses match requests; only this connection's state is held, never broker or partition locks
func (rc *rpcConn) callWire(op byte, req request, resp response, rbuf *[]byte) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.dead {
		return fmt.Errorf("%w: connection closed", errTransport)
	}
	if rbuf == nil {
		rbuf = &rc.rbuf
	}
	rc.wbuf = frame.Begin(rc.wbuf[:0])
	rc.wbuf = req.appendTo(append(rc.wbuf, op))
	if err := writeFrame(rc.c, rc.wbuf); err != nil {
		rc.dead = true
		return fmt.Errorf("%w: %w", errTransport, err)
	}
	rbody, buf, err := rc.fr.Next(*rbuf)
	*rbuf = buf
	if err != nil {
		rc.dead = true
		return fmt.Errorf("%w: %w", errTransport, err)
	}
	if len(rbody) == 0 || rbody[0] != op {
		rc.dead = true
		return fmt.Errorf("%w: response opcode mismatch", errTransport)
	}
	if err := resp.decode(rbody[1:]); err != nil {
		rc.dead = true
		return fmt.Errorf("%w: %w", errTransport, err)
	}
	return resp.toErr()
}

// close shuts the socket: a call in flight fails on it, and so does
// every later one, as a transport failure.
func (rc *rpcConn) close() { rc.c.Close() }

// connSlot caches one connection to a node: the leader, for a client's
// control calls, a producer's sends or a consumer's group calls and
// fetches, or a peer, for replication and elections. get dials outside
// the lock and keeps the first of two racing dials; drop empties the
// slot only while the failed connection is still its own, so a caller
// holding a stale one cannot discard its successor; close empties it for
// good, and every later get answers broker.ErrClosed. A connection the
// slot keeps after it held one before is a reconnect, which it reports
// to reconnected when that is set.
type connSlot struct {
	dial        func() (*rpcConn, error)
	reconnected func()

	mu     sync.Mutex
	rc     *rpcConn //alarmvet:guardedby mu
	held   bool     //alarmvet:guardedby mu
	closed bool     //alarmvet:guardedby mu
}

// get returns the slot's connection, dialing when it is empty.
func (s *connSlot) get() (*rpcConn, error) {
	s.mu.Lock()
	rc, closed := s.rc, s.closed
	s.mu.Unlock()
	if closed {
		return nil, broker.ErrClosed
	}
	if rc != nil {
		return rc, nil
	}
	rc, err := s.dial()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	cur, closed, again := s.rc, s.closed, s.held
	if cur == nil && !closed {
		s.rc, s.held = rc, true
	}
	s.mu.Unlock()
	switch {
	case closed:
		rc.close()
		return nil, broker.ErrClosed
	case cur != nil:
		rc.close()
		return cur, nil
	}
	if again && s.reconnected != nil {
		s.reconnected()
	}
	return rc, nil
}

// drop closes rc, emptying the slot if rc is still its connection, and
// reports whether it was; nil drops whatever the slot holds.
func (s *connSlot) drop(rc *rpcConn) bool {
	s.mu.Lock()
	cur := s.rc
	if rc == nil {
		rc = cur
	}
	own := rc != nil && rc == cur
	if own {
		s.rc = nil
	}
	s.mu.Unlock()
	if rc != nil {
		rc.close()
	}
	return own
}

// close drops the slot's connection and refuses every later get.
func (s *connSlot) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.drop(nil)
}

// call runs one call on the slot's connection (see callWire). A
// transport failure or a leader redirect drops the connection; dropped
// reports that it was still the slot's own, the cue for a caller with
// other slots on the same node to drop those too.
func (s *connSlot) call(op byte, req request, resp response, rbuf *[]byte) (dropped bool, err error) {
	rc, err := s.get()
	if err != nil {
		return false, err
	}
	if err = rc.callWire(op, req, resp, rbuf); err != nil && retriable(err) {
		dropped = s.drop(rc)
	}
	return dropped, err
}

// ClientOptions tunes a Client.
type ClientOptions struct {
	// DialTimeout bounds each connection attempt (default 500ms).
	DialTimeout time.Duration
	// RetryTimeout bounds how long producer sends and leader
	// rediscovery keep retrying through a failover before giving up
	// (default 15s).
	RetryTimeout time.Duration
}

func (o *ClientOptions) defaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 500 * time.Millisecond
	}
	if o.RetryTimeout <= 0 {
		o.RetryTimeout = 15 * time.Second
	}
}

// Client speaks the framed protocol to a replica set. It tracks the
// current leader (rediscovering it through failovers), creates topics,
// and hands out Producers and group Consumers. It satisfies
// serve.Cluster for one topic, so a remote alarmd builds its shards
// with serve.NewWith(client, ...) exactly as the single process builds
// them over the in-process broker.
type Client struct {
	addrs []string
	topic string
	opts  ClientOptions

	// ctl carries the control calls: topic creation and the group
	// audit.
	ctl connSlot

	// retries counts the pauses between tries in retry; reconnects the
	// connections the slots of the client, its producers and consumers
	// dialed after a drop; fetches the fetch round trips its consumers
	// made, and emptyFetches those that brought no record.
	retries, reconnects   atomic.Int64
	fetches, emptyFetches atomic.Int64
}

// Dial connects to a replica set (addrs in node-id order, same list
// the servers were configured with) and locates the current leader.
// topic names the topic this client's producers and consumers work
// against.
func Dial(addrs []string, topic string, opts ClientOptions) (*Client, error) {
	opts.defaults()
	if len(addrs) == 0 {
		return nil, errors.New("netbroker: no addresses")
	}
	c := &Client{addrs: addrs, topic: topic, opts: opts}
	c.leaderSlot(&c.ctl)
	if _, err := c.ctl.get(); err != nil {
		return nil, err
	}
	return c, nil
}

// leaderSlot aims slot at the leader and counts its reconnects as the
// client's.
func (c *Client) leaderSlot(slot *connSlot) {
	slot.dial = c.dialLeader
	slot.reconnected = func() { c.reconnects.Add(1) }
}

// WireStats counts what a client's calls cost on the wire, its
// producers' and consumers' included.
type WireStats struct {
	// Retries counts the pauses between tries of a call, Reconnects the
	// connections dialed again after a drop.
	Retries, Reconnects int64
	// Fetches counts the consumers' fetch round trips, EmptyFetches
	// those that brought no record: a parked fetch that timed out, or
	// one that lost a race with a rebalance or a failover.
	Fetches, EmptyFetches int64
}

// WireStats snapshots the client's wire counters.
func (c *Client) WireStats() WireStats {
	return WireStats{
		Retries: c.retries.Load(), Reconnects: c.reconnects.Load(),
		Fetches: c.fetches.Load(), EmptyFetches: c.emptyFetches.Load(),
	}
}

// Close drops the client's control connection; its later calls answer
// broker.ErrClosed. Producers and consumers own their connections and
// close independently.
func (c *Client) Close() { c.ctl.close() }

// discoverLeader probes every node for its view and returns the
// leader claimed by the highest epoch.
func (c *Client) discoverLeader() (int, error) {
	bestEpoch := int64(-1)
	leader := -1
	for _, addr := range c.addrs {
		rc, err := dialRPC(addr, c.opts.DialTimeout)
		if err != nil {
			continue
		}
		var resp metaResp
		err = rc.call(opMeta, metaReq{}, &resp)
		rc.close()
		if err != nil {
			continue
		}
		if resp.Epoch > bestEpoch && resp.Leader >= 0 {
			bestEpoch = resp.Epoch
			leader = resp.Leader
		}
	}
	if leader < 0 || leader >= len(c.addrs) {
		return -1, fmt.Errorf("%w: no reachable leader", errTransport)
	}
	return leader, nil
}

// dialLeader dials the current leader: every leader slot's dial.
func (c *Client) dialLeader() (*rpcConn, error) {
	leader, err := c.discoverLeader()
	if err != nil {
		return nil, err
	}
	return dialRPC(c.addrs[leader], c.opts.DialTimeout)
}

// retriable reports whether an error warrants leader rediscovery:
// only known-transient failures — follower redirects, quorum ack
// timeouts, and transport-level errors (rpcConn.call tags every
// connection failure with errTransport). Everything else, notably
// server-generated semantic errors like a partition-count mismatch, is
// permanent and fails fast instead of burning the whole RetryTimeout
// and surfacing as a misleading "retries exhausted".
func retriable(err error) bool {
	if errors.Is(err, ErrNotLeader) || errors.Is(err, ErrAckTimeout) || errors.Is(err, errTransport) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// retry runs try until it succeeds or fails for good: once RetryTimeout
// has passed since the first try, or with an error that is not
// retriable. It pauses 100 ms between tries, and a close of stop (nil
// for none) ends the pause with broker.ErrClosed. Every call that rides
// out a failover — control calls, sends, a consumer's refresh (a join,
// which re-adds a session the coordinator expired) — retries here.
func (c *Client) retry(stop <-chan struct{}, try func() error) error {
	deadline := time.Now().Add(c.opts.RetryTimeout)
	for {
		err := try()
		if err == nil || !retriable(err) {
			return err
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("netbroker: retries exhausted: %w", err)
		}
		c.retries.Add(1)
		select {
		case <-stop:
			return broker.ErrClosed
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// callLeader runs one control-plane call against the leader, retrying
// through failovers.
func (c *Client) callLeader(op byte, req any, resp interface{ toErr() error }) error {
	enc, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.retry(nil, func() error {
		_, err := c.ctl.call(op, jsonBody(enc), jsonResp{resp}, nil)
		return err
	})
}

// EnsureTopic creates the client's topic with the given partition
// count if it does not exist, returning the actual partition count.
func (c *Client) EnsureTopic(partitions int) (int, error) {
	var resp ensureTopicResp
	err := c.callLeader(opEnsureTopic, ensureTopicReq{Name: c.topic, Partitions: partitions}, &resp)
	if err != nil {
		return 0, err
	}
	return resp.Partitions, nil
}

// GroupCommitted snapshots the group's committed offsets from the
// leader's coordinator (the serve.Cluster audit surface).
func (c *Client) GroupCommitted(group string) (map[int]int64, error) {
	var resp groupCommittedResp
	if err := c.callLeader(opGroupCommitted, groupCommittedReq{Group: group}, &resp); err != nil {
		return nil, err
	}
	return resp.Offsets, nil
}

// NewGroupConsumer joins the consumer group over the wire and returns
// a broker.GroupConsumer backed by this client (the serve.Cluster
// join surface).
func (c *Client) NewGroupConsumer(group, id string) (broker.GroupConsumer, int, error) {
	cons, err := c.newConsumer(group, id)
	if err != nil {
		return nil, 0, err
	}
	cons.mu.Lock()
	defer cons.mu.Unlock()
	return cons, cons.partitions, nil
}

// randomProducerID draws a random non-negative id: producers in
// different processes must not collide, or the broker's idempotence
// sequences would alias.
func randomProducerID() int64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return time.Now().UnixNano()
	}
	id := int64(binary.BigEndian.Uint64(b[:]) >> 1)
	return id
}

// Producer appends records to the remote topic with client-side
// partitioning and per-partition idempotence sequences, acked only
// after the leader reaches follower quorum. Safe for concurrent use.
//
// Delivery: a send that was acked is never lost (it is on a quorum and
// every electable leader carries it). A send that errored or timed out
// may or may not have committed; retries within one leader epoch are
// deduplicated by sequence number, retries across a failover may
// duplicate — at-least-once, exactly-once under stable leadership.
type Producer struct {
	c          *Client
	id         int64
	partitions int

	conn connSlot

	rr    atomic.Int64
	parts []sendPartition
}

// sendPartition is one partition's send state: the next sequence number
// and the messages of the one send in flight, all under the lock.
type sendPartition struct {
	sync.Mutex
	seq  int64
	req  appendReq
	resp appendResp
}

// NewProducer builds a producer for the client's topic. The topic must
// already exist (EnsureTopic).
func (c *Client) NewProducer() (*Producer, error) {
	parts, err := c.EnsureTopic(0)
	if err != nil {
		return nil, err
	}
	p := &Producer{
		c:          c,
		id:         randomProducerID(),
		partitions: parts,
		parts:      make([]sendPartition, parts),
	}
	c.leaderSlot(&p.conn)
	return p, nil
}

// SendAt appends one record, returning its partition and offset once
// the leader acknowledges quorum replication.
//
//alarmvet:ignore per-partition send ordering: the partition lock must span the seq allocation and the wire call (including leader-rediscovery retries) or the broker's dedup window drops out-of-order survivors; it is a client-local lock, never a broker mutex
func (p *Producer) SendAt(key, value []byte, ts time.Time) (int, int64, error) {
	part := broker.PartitionForKey(key, p.partitions)
	if part < 0 {
		part = int(p.rr.Add(1)) % p.partitions
	}
	pp := &p.parts[part]
	// The partition lock spans the wire call on purpose: sequence
	// numbers must hit the leader in allocation order or the broker's
	// dedup window drops the out-of-order survivor (the PR 5 ordering
	// bug, now over a network).
	pp.Lock()
	defer pp.Unlock()
	seq := pp.seq
	pp.seq++
	if ts.IsZero() {
		ts = time.Now()
	}
	pp.req.Topic, pp.req.Partition, pp.req.ProducerID, pp.req.BaseSeq = p.c.topic, part, p.id, seq
	pp.req.Recs = append(pp.req.Recs[:0], broker.Record{Key: key, Value: value, Timestamp: ts})
	err := p.c.retry(nil, func() error {
		_, err := p.conn.call(opAppend, &pp.req, &pp.resp, nil)
		return err
	})
	if err != nil {
		return part, 0, err
	}
	return part, pp.resp.Base, nil
}

// Close drops the producer's connection; later sends answer
// broker.ErrClosed.
func (p *Producer) Close() { p.conn.close() }
