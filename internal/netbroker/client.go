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
	rbuf []byte
	wbuf []byte
	fbuf []byte
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
	return &rpcConn{c: c}, nil
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
	rc.wbuf = req.appendTo(append(rc.wbuf[:0], op))
	fbuf, err := writeFrame(rc.c, rc.fbuf, rc.wbuf)
	rc.fbuf = fbuf
	if err != nil {
		rc.dead = true
		return fmt.Errorf("%w: %w", errTransport, err)
	}
	rbody, buf, err := readFrame(rc.c, *rbuf)
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

func (rc *rpcConn) close() {
	rc.c.Close()
	rc.mu.Lock()
	rc.dead = true
	rc.mu.Unlock()
}

// ClientOptions tunes a Client.
type ClientOptions struct {
	// DialTimeout bounds each connection attempt (default 500ms).
	DialTimeout time.Duration
	// RetryTimeout bounds how long producer sends and leader
	// rediscovery keep retrying through a failover before giving up
	// (default 15s).
	RetryTimeout time.Duration
	// HeartbeatInterval paces each consumer's group heartbeat
	// (default 150ms).
	HeartbeatInterval time.Duration
}

func (o *ClientOptions) defaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 500 * time.Millisecond
	}
	if o.RetryTimeout <= 0 {
		o.RetryTimeout = 15 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 150 * time.Millisecond
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

	mu     sync.Mutex
	leader int
	ctl    *rpcConn
	closed bool
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
	c := &Client{addrs: addrs, topic: topic, opts: opts, leader: -1}
	if _, err := c.leaderConn(); err != nil {
		return nil, err
	}
	return c, nil
}

// Close drops the client's control connection. Producers and
// consumers own their connections and close independently.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	ctl := c.ctl
	c.ctl = nil
	c.mu.Unlock()
	if ctl != nil {
		ctl.close()
	}
}

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
		return -1, errors.New("netbroker: no reachable leader")
	}
	return leader, nil
}

// leaderConn returns the cached control connection to the current
// leader, discovering and dialing as needed.
func (c *Client) leaderConn() (*rpcConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, broker.ErrClosed
	}
	if c.ctl != nil {
		rc := c.ctl
		c.mu.Unlock()
		return rc, nil
	}
	c.mu.Unlock()
	leader, err := c.discoverLeader()
	if err != nil {
		return nil, err
	}
	rc, err := dialRPC(c.addrs[leader], c.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		rc.close()
		return nil, broker.ErrClosed
	}
	if c.ctl != nil {
		old := c.ctl
		c.mu.Unlock()
		rc.close()
		return old, nil
	}
	c.leader = leader
	c.ctl = rc
	c.mu.Unlock()
	return rc, nil
}

// invalidate drops a failed control connection.
func (c *Client) invalidate(rc *rpcConn) {
	c.mu.Lock()
	if c.ctl == rc {
		c.ctl = nil
		c.leader = -1
	}
	c.mu.Unlock()
	rc.close()
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

// callLeader runs one control-plane call against the leader, retrying
// through failovers until RetryTimeout.
func (c *Client) callLeader(op byte, req any, resp interface{ toErr() error }) error {
	deadline := time.Now().Add(c.opts.RetryTimeout)
	var lastErr error
	for {
		rc, err := c.leaderConn()
		if err == nil {
			err = rc.call(op, req, resp)
			if err == nil {
				return nil
			}
			if !retriable(err) {
				return err
			}
			c.invalidate(rc)
		}
		lastErr = err
		if !time.Now().Before(deadline) {
			return fmt.Errorf("netbroker: retries exhausted: %w", lastErr)
		}
		time.Sleep(100 * time.Millisecond)
	}
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

	connMu sync.Mutex
	conn   *rpcConn

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
	return &Producer{
		c:          c,
		id:         randomProducerID(),
		partitions: parts,
		parts:      make([]sendPartition, parts),
	}, nil
}

// sendConn returns the producer's connection to the leader.
func (p *Producer) sendConn() (*rpcConn, error) {
	p.connMu.Lock()
	rc := p.conn
	p.connMu.Unlock()
	if rc != nil {
		return rc, nil
	}
	leader, err := p.c.discoverLeader()
	if err != nil {
		return nil, err
	}
	rc, err = dialRPC(p.c.addrs[leader], p.c.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	p.connMu.Lock()
	if p.conn != nil {
		old := p.conn
		p.connMu.Unlock()
		rc.close()
		return old, nil
	}
	p.conn = rc
	p.connMu.Unlock()
	return rc, nil
}

func (p *Producer) dropConn(rc *rpcConn) {
	p.connMu.Lock()
	if p.conn == rc {
		p.conn = nil
	}
	p.connMu.Unlock()
	rc.close()
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
	deadline := time.Now().Add(p.c.opts.RetryTimeout)
	var lastErr error
	for {
		rc, err := p.sendConn()
		if err == nil {
			err = rc.callWire(opAppend, &pp.req, &pp.resp, nil)
			if err == nil {
				return part, pp.resp.Base, nil
			}
			if !retriable(err) {
				return part, 0, err
			}
			p.dropConn(rc)
		}
		lastErr = err
		if !time.Now().Before(deadline) {
			return part, 0, fmt.Errorf("netbroker: send retries exhausted: %w", lastErr)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// Close drops the producer's connection.
func (p *Producer) Close() {
	p.connMu.Lock()
	rc := p.conn
	p.conn = nil
	p.connMu.Unlock()
	if rc != nil {
		rc.close()
	}
}
