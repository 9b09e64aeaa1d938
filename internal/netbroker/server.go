package netbroker

import (
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/frame"
	"alarmverify/internal/metrics"
)

// Options tunes a Server. The zero value is a standalone single-node
// broker; set Peers (and a matching NodeID) for a replica set.
type Options struct {
	// NodeID is this node's index into Peers (0 when standalone).
	NodeID int
	// Peers lists every replica's address, own address included, in a
	// fixed order shared by all nodes: the index is the node id. Empty
	// means standalone (replication factor 1).
	Peers []string
	// ReplInterval bounds how long the leader parks a follower pull
	// that has nothing to ship — the idle heartbeat, not the pull
	// cadence: an append wakes parked pulls at once (default 5ms). A
	// follower hears nothing while its pull is parked, so it must stay
	// below half of ElectionTimeout or silence would read as a dead
	// leader.
	ReplInterval time.Duration
	// ElectionTimeout is how long a follower tolerates leader silence
	// before standing for election; it is staggered by NodeID so
	// candidacies rarely collide (default 750ms + NodeID*250ms).
	ElectionTimeout time.Duration
	// AckTimeout bounds how long an append waits for follower quorum
	// before failing with ErrAckTimeout (default 5s).
	AckTimeout time.Duration
	// SessionTimeout expires consumer-group members that stop
	// heartbeating, releasing their partitions (default 3s). A member
	// learns its heartbeat pace, a twentieth of it, when it joins.
	SessionTimeout time.Duration
	// Repl, when set, receives replication metrics: current epoch and
	// leader, failover count, per-follower replica lag, per-peer
	// reconnects.
	Repl *metrics.Replication
}

// Validate reports whether the options, with defaults applied, make a
// runnable node; NewServer refuses the same configurations.
func (o Options) Validate() error { return o.defaults() }

func (o *Options) defaults() error {
	if o.ReplInterval <= 0 {
		o.ReplInterval = 5 * time.Millisecond
	}
	if o.ElectionTimeout <= 0 {
		o.ElectionTimeout = 750 * time.Millisecond
	}
	if o.ReplInterval >= o.ElectionTimeout/2 {
		return fmt.Errorf("netbroker: ReplInterval %s must be below half of ElectionTimeout %s: "+
			"a parked pull keeps a follower silent that long, which would read as a dead leader",
			o.ReplInterval, o.ElectionTimeout)
	}
	o.ElectionTimeout += time.Duration(o.NodeID) * o.ElectionTimeout / 3
	if o.AckTimeout <= 0 {
		o.AckTimeout = 5 * time.Second
	}
	if o.SessionTimeout <= 0 {
		o.SessionTimeout = 3 * time.Second
	}
	return nil
}

// Server wraps an in-process broker behind the framed TCP protocol
// and, when Peers is set, replicates every partition log across the
// replica set with quorum-acknowledged appends and epoch-fenced leader
// failover. One Server is one node; node 0 is the initial leader at
// epoch 1.
type Server struct {
	opts   Options
	b      *broker.Broker
	ln     net.Listener
	quorum int

	// mu guards the replication state its fields declare; cond
	// broadcasts on local appends, commit advances, epoch changes and
	// shutdown (append ack waiters, parked follower pulls, parked
	// consumer fetches).
	mu          sync.Mutex
	cond        *sync.Cond
	epoch       int64     //alarmvet:guardedby mu
	leader      int       //alarmvet:guardedby mu
	votedEpoch  int64     //alarmvet:guardedby mu
	lastContact time.Time //alarmvet:guardedby mu
	// match[topic][node] is the per-partition log size follower node
	// has acknowledged (its pull request's Sizes, prefix-verified
	// against the local log before being counted), leader-side state.
	//
	//alarmvet:guardedby mu
	match map[string]map[int][]int64
	// lastPull[node] is when follower node last pulled from this
	// leader; leadSince is when this node assumed leadership. Together
	// they drive the step-down check: a leader that stops hearing a
	// follower quorum demotes itself.
	lastPull  map[int]time.Time //alarmvet:guardedby mu
	leadSince time.Time         //alarmvet:guardedby mu
	// commits[topic][partition] is the quorum commit index — the
	// consumer-visible limit. Monotonic.
	//
	//alarmvet:guardedby mu
	commits map[string][]int64
	// logGen counts local appends (what a parked follower pull waits
	// for), commitGen counts moves of any consumer-visible limit (what a
	// parked consumer fetch waits for); see park.
	//
	//alarmvet:guardedby mu
	logGen, commitGen uint64
	closed            bool //alarmvet:guardedby mu

	// sessions[key] is when the remote group member key last joined or
	// was heard from: its liveness stamp, which the janitor expires (an
	// alarmd process that dies without Leave releases its partitions
	// after SessionTimeout). The member itself lives in the broker's
	// group; sessMu is held across every change to both.
	sessMu   sync.Mutex
	sessions map[sessionKey]time.Time

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// peers[node] is the connection slot for a peer, nil once closed.
	peerMu sync.Mutex
	peers  map[int]*connSlot

	// pull is replLoop's own: the follower's pull messages and topic
	// list, kept for their capacity.
	pull struct {
		topics []*broker.Topic
		req    replFetchReq
		resp   replFetchResp
	}

	stopc chan struct{}
	wg    sync.WaitGroup
}

// NewServer wraps b behind the protocol on addr ("" or ":0" for an
// ephemeral port) and starts serving. With opts.Peers set, the node
// joins the replica set: node 0 starts as leader of epoch 1, the rest
// start pulling from it.
func NewServer(b *broker.Broker, addr string, opts Options) (*Server, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	if addr == "" {
		addr = ":0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netbroker: listen: %w", err)
	}
	s := &Server{
		opts:        opts,
		b:           b,
		ln:          ln,
		quorum:      1,
		epoch:       1,
		leader:      0,
		lastContact: time.Now(),
		match:       make(map[string]map[int][]int64),
		lastPull:    make(map[int]time.Time),
		leadSince:   time.Now(),
		commits:     make(map[string][]int64),
		sessions:    make(map[sessionKey]time.Time),
		conns:       make(map[net.Conn]struct{}),
		peers:       make(map[int]*connSlot),
		stopc:       make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if n := len(opts.Peers); n > 1 {
		s.quorum = n/2 + 1
	}
	s.publishRole()
	s.wg.Add(1)
	go s.acceptLoop()
	if len(opts.Peers) > 1 {
		s.wg.Add(1)
		go s.replLoop()
	}
	s.wg.Add(1)
	go s.janitor()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// IsLeader reports whether this node currently believes it leads.
func (s *Server) IsLeader() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leader == s.opts.NodeID
}

// Epoch returns the node's current epoch.
func (s *Server) Epoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Health reports why the node cannot serve — it is closed, or it knows
// no leader (an election is under way, or it led and lost its follower
// quorum) — or nil when it can.
func (s *Server) Health() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return broker.ErrClosed
	case s.leader < 0:
		return fmt.Errorf("%w: no leader known at epoch %d (node %d)", ErrNotLeader, s.epoch, s.opts.NodeID)
	}
	return nil
}

// Close stops serving: the listener and every open connection close,
// background loops exit, and blocked append waiters fail. The wrapped
// broker is left to its owner.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	close(s.stopc)
	s.ln.Close()
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.peerMu.Lock()
	for _, ps := range s.peers {
		ps.close()
	}
	s.peers = nil
	s.peerMu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.connMu.Lock()
		if s.isClosed() {
			s.connMu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// connScratch is what one connection's requests are decoded into and
// its responses built in, kept between requests for the capacity: the
// messages of the binary opcodes, the broker-side forms they are turned
// into, the response body, and the one deadline timer a parked request
// arms (it fires into wake; stopped whenever no request is parked), and
// the pins of the partitions whose records a response carries.
type connScratch struct {
	appendReq  appendReq
	appendResp appendResp
	fetchReq   fetchReq
	logReq     fetchLogReq
	fetchResp  fetchResp
	commitReq  commitReq
	commitResp commitResp
	hbReq      heartbeatReq
	hbResp     heartbeatResp
	hwReq      hwReq
	hwResp     hwResp
	replReq    replFetchReq
	replResp   replFetchResp
	topics     []*broker.Topic
	offsets    map[int]int64
	timer      *time.Timer
	out        []byte
	// pins are the partitions the request's records view, released
	// once the response is encoded.
	pins broker.Pins
}

func (s *Server) newConnScratch() *connScratch {
	sc := &connScratch{offsets: make(map[int]int64), timer: time.AfterFunc(time.Hour, s.wake)}
	sc.timer.Stop()
	return sc
}

// serveConn handles one connection: sequential request/response frames
// until the peer hangs up or sends garbage.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		c.Close()
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
	}()
	sc := s.newConnScratch()
	fr := frame.NewReader(c, MaxFrame)
	var rbuf []byte
	for {
		body, buf, err := fr.Next(rbuf)
		rbuf = buf
		if err != nil {
			return
		}
		if len(body) == 0 {
			return
		}
		resp, err := s.dispatch(sc, body[0], body[1:])
		if err != nil {
			return
		}
		if err := writeFrame(c, resp); err != nil {
			return
		}
	}
}

// viaJSON runs a control opcode's handler between its JSON bodies.
func viaJSON[Q, R any](payload []byte, handle func(Q) R) (any, error) {
	var req Q
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, err
	}
	return handle(req), nil
}

// dispatch decodes one request, runs its handler and encodes the
// response under the echoed opcode into sc.out, after room for the
// frame header, and returns that frame for writeFrame to seal. Unknown
// opcodes and malformed payloads drop the connection (err != nil).
func (s *Server) dispatch(sc *connScratch, op byte, payload []byte) ([]byte, error) {
	// The records a fetch, log fetch or pull response carries are views
	// of the log's arena until they are encoded into out.
	defer sc.pins.Release()
	out := frame.Begin(sc.out[:0])
	out = append(out, op)
	var resp any
	var err error
	switch op {
	case opAppend:
		if err = sc.appendReq.decode(payload); err == nil {
			s.handleAppend(&sc.appendReq, &sc.appendResp, sc.timer)
			out = sc.appendResp.appendTo(out)
		}
	case opFetch:
		if err = sc.fetchReq.decode(payload); err == nil {
			s.handleFetch(&sc.fetchReq, &sc.fetchResp, sc)
			out = sc.fetchResp.appendTo(out)
		}
	case opCommit:
		if err = sc.commitReq.decode(payload); err == nil {
			s.handleCommit(&sc.commitReq, &sc.commitResp, sc.offsets)
			out = sc.commitResp.appendTo(out)
		}
	case opReplFetch:
		if err = sc.replReq.decode(payload); err == nil {
			s.handleReplFetch(&sc.replReq, &sc.replResp, sc)
			out = sc.replResp.appendTo(out)
		}
	case opFetchLog:
		if err = sc.logReq.decode(payload); err == nil {
			s.handleFetchLog(&sc.logReq, &sc.fetchResp, &sc.pins)
			out = sc.fetchResp.appendTo(out)
		}
	case opHeartbeat:
		if err = sc.hbReq.decode(payload); err == nil {
			s.handleHeartbeat(&sc.hbReq, &sc.hbResp)
			out = sc.hbResp.appendTo(out)
		}
	case opHighWatermarks:
		if err = sc.hwReq.decode(payload); err == nil {
			s.handleHighWatermarks(&sc.hwReq, &sc.hwResp)
			out = sc.hwResp.appendTo(out)
		}
	case opMeta:
		resp, err = viaJSON(payload, s.handleMeta)
	case opEnsureTopic:
		resp, err = viaJSON(payload, s.handleEnsureTopic)
	case opJoin:
		resp, err = viaJSON(payload, s.handleJoin)
	case opLeave:
		resp, err = viaJSON(payload, s.handleLeave)
	case opGroupCommitted:
		resp, err = viaJSON(payload, s.handleGroupCommitted)
	case opVote:
		resp, err = viaJSON(payload, s.handleVote)
	case opDeclare:
		resp, err = viaJSON(payload, s.handleDeclare)
	default:
		err = fmt.Errorf("netbroker: unknown opcode %d", op)
	}
	if err != nil {
		return nil, err
	}
	if resp != nil {
		enc, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		out = append(out, enc...)
	}
	sc.out = out
	return out, nil
}

// notLeader builds the standard redirect error for follower-refused
// coordinator operations.
func (s *Server) notLeader() error {
	s.mu.Lock()
	leader := s.leader
	s.mu.Unlock()
	return fmt.Errorf("%w (node %d, leader %d)", ErrNotLeader, s.opts.NodeID, leader)
}

// requireLeader returns nil iff this node currently leads.
func (s *Server) requireLeader() error {
	s.mu.Lock()
	isLeader := s.leader == s.opts.NodeID
	s.mu.Unlock()
	if !isLeader {
		return s.notLeader()
	}
	return nil
}

func (s *Server) handleMeta(metaReq) metaResp {
	var resp metaResp
	s.mu.Lock()
	resp.NodeID = s.opts.NodeID
	resp.Epoch = s.epoch
	resp.Leader = s.leader
	s.mu.Unlock()
	resp.Topics = s.topicSizes()
	return resp
}

// topicSizes maps every local topic to its partition count.
func (s *Server) topicSizes() map[string]int {
	out := make(map[string]int)
	for _, t := range s.b.AppendTopics(nil) {
		out[t.Name()] = t.Partitions()
	}
	return out
}

func (s *Server) handleEnsureTopic(req ensureTopicReq) ensureTopicResp {
	var resp ensureTopicResp
	if err := s.requireLeader(); err != nil {
		resp.setErr(err)
		return resp
	}
	if t, err := s.b.Topic(req.Name); err == nil {
		if req.Partitions > 0 && t.Partitions() != req.Partitions {
			resp.setErr(fmt.Errorf("netbroker: topic %q has %d partitions, requested %d",
				req.Name, t.Partitions(), req.Partitions))
			return resp
		}
		resp.Partitions = t.Partitions()
		return resp
	}
	t, err := s.b.CreateTopic(req.Name, req.Partitions)
	if err != nil {
		resp.setErr(err)
		return resp
	}
	s.initTopic(req.Name, t)
	resp.Partitions = t.Partitions()
	return resp
}

// initTopic puts a fresh topic under replicated visibility: nothing is
// consumer-visible until quorum-committed (limit starts at 0 and only
// the commit recomputation advances it). In a replica set the log start
// is held at 0 too, until the followers' matches (on the leader) or the
// leader's log start (on a follower) let it rise.
func (s *Server) initTopic(name string, t *broker.Topic) {
	for p := 0; p < t.Partitions(); p++ {
		t.SetVisibleLimit(p, 0)
		if len(s.opts.Peers) > 1 {
			t.SetLogStartFloor(p, 0)
		}
	}
	s.mu.Lock()
	if _, ok := s.commits[name]; !ok {
		s.commits[name] = make([]int64, t.Partitions())
	}
	s.mu.Unlock()
}

func (s *Server) handleAppend(req *appendReq, resp *appendResp, timer *time.Timer) {
	*resp = appendResp{}
	s.mu.Lock()
	if s.leader != s.opts.NodeID {
		leader := s.leader
		s.mu.Unlock()
		resp.setErr(fmt.Errorf("%w (node %d, leader %d)", ErrNotLeader, s.opts.NodeID, leader))
		return
	}
	epoch := s.epoch
	s.mu.Unlock()
	t, err := s.b.Topic(req.Topic)
	if err != nil {
		resp.setErr(err)
		return
	}
	// Stamp the appending epoch: replicas install it verbatim, and log
	// reconciliation compares (epoch, offset) pairs to detect divergent
	// suffixes that equal log sizes would hide. The log copies keys and
	// values out of the frame they still point into.
	for i := range req.Recs {
		req.Recs[i].Epoch = epoch
	}
	base, err := t.Append(req.Partition, req.ProducerID, req.BaseSeq, req.Recs)
	if err != nil {
		resp.setErr(err)
		return
	}
	// Ack target: everything in the log after this append (a retried
	// duplicate reports the post-original size, so waiting on the
	// current size is correct for both fresh and deduplicated batches).
	want, err := t.LogSize(req.Partition)
	if err != nil {
		resp.setErr(err)
		return
	}
	s.mu.Lock()
	s.logGen++
	s.cond.Broadcast() // parked follower pulls ship the new records at once
	s.advanceLocked(req.Topic, t)
	s.mu.Unlock()
	if err := s.waitCommitted(req.Topic, req.Partition, want, epoch, timer); err != nil {
		resp.setErr(err)
		return
	}
	resp.Base = base
}

// waitCommitted blocks until the partition's quorum commit index
// reaches want, the epoch moves on or this node stops leading
// (deposed or stepped down: the append may or may not survive — the
// producer retries at the new leader), the server closes, or
// AckTimeout passes; timer is the connection's.
func (s *Server) waitCommitted(topic string, partition int, want, epoch int64, timer *time.Timer) error {
	deadline := time.Now().Add(s.opts.AckTimeout)
	timer.Reset(s.opts.AckTimeout)
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.commitLocked(topic, partition) < want && s.epoch == epoch &&
		s.leader == s.opts.NodeID && !s.closed && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	switch {
	case s.commitLocked(topic, partition) >= want:
		return nil
	case s.closed:
		return broker.ErrClosed
	case s.epoch != epoch || s.leader != s.opts.NodeID:
		return fmt.Errorf("%w: deposed during ack wait", ErrNotLeader)
	default:
		return fmt.Errorf("%w: partition %d commit %d < %d", ErrAckTimeout,
			partition, s.commitLocked(topic, partition), want)
	}
}

// wake rouses every cond waiter to re-check its deadline.
func (s *Server) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// park blocks until *gen moves past seen (reported as moved), the
// server closes, or deadline passes, which the connection's timer turns
// into a wake-up. The caller holds s.mu and read seen before looking
// for work, so a bump between that look and the park is never slept
// through; the lock is released only inside cond.Wait.
func (s *Server) park(gen *uint64, seen uint64, deadline time.Time, timer *time.Timer) (moved bool) {
	if wait := time.Until(deadline); *gen == seen && wait > 0 {
		timer.Reset(wait)
		for *gen == seen && !s.closed && time.Now().Before(deadline) {
			s.cond.Wait()
		}
		timer.Stop()
	}
	return *gen != seen
}

func (s *Server) commitLocked(topic string, partition int) int64 {
	c := s.commits[topic]
	if partition < 0 || partition >= len(c) {
		return 0
	}
	return c[partition]
}

// advanceLocked recomputes the quorum commit index of every partition
// of topic t from the leader's own log sizes and the follower acks, and
// publishes it as the consumer-visible limit; in a replica set the
// lowest follower ack (0 for one not heard from) becomes the floor of
// the log start, so no follower is left needing a released record.
// Caller holds s.mu.
func (s *Server) advanceLocked(name string, t *broker.Topic) {
	n := t.Partitions()
	commits := s.commits[name]
	if len(commits) < n {
		grown := make([]int64, n)
		copy(grown, commits)
		commits = grown
		s.commits[name] = commits
	}
	// Replica sets are a handful of nodes: the per-partition ack vector
	// lives on the stack and sorts without a closure.
	var buf [8]int64
	advanced := false
	for p := 0; p < n; p++ {
		sizes := buf[:0]
		own, err := t.LogSize(p)
		if err != nil {
			continue
		}
		sizes = append(sizes, own)
		floor := own
		for node, acked := range s.match[name] {
			if node == s.opts.NodeID {
				continue
			}
			var v int64
			if p < len(acked) {
				v = acked[p]
			}
			sizes = append(sizes, v)
			floor = min(floor, v)
		}
		// Pad unheard-from followers with zero acks.
		for len(sizes) < len(s.opts.Peers) {
			sizes = append(sizes, 0)
			floor = 0
		}
		if len(s.opts.Peers) > 1 {
			t.SetLogStartFloor(p, floor)
		}
		// The quorum-th largest ack is on a quorum of logs.
		slices.Sort(sizes)
		commit := sizes[len(sizes)-1]
		if s.quorum <= len(sizes) {
			commit = sizes[len(sizes)-s.quorum]
		}
		if commit > commits[p] {
			commits[p] = commit
			t.SetVisibleLimit(p, commit)
			advanced = true
		}
	}
	if advanced {
		s.commitGen++
		s.cond.Broadcast()
	}
}

// maxFetchWait caps how long a consumer fetch may ask to be held.
const maxFetchWait = 30 * time.Second

// fit cuts recs[from:], a partition's records just added to a response,
// where the byte budget runs out, and returns what is left of it. The
// partition's first record always ships, so a record larger than the
// budget still makes progress; the peer's next request resumes where
// this response ends.
//
//alarmvet:hotpath
func fit(recs []broker.Record, from, budget int) ([]broker.Record, int) {
	for i := from; i < len(recs); i++ {
		if budget <= 0 && i > from {
			return recs[:i], budget
		}
		budget -= recordLen(&recs[i])
	}
	return recs, budget
}

func (s *Server) handleFetch(req *fetchReq, resp *fetchResp, sc *connScratch) {
	resp.wireErr, resp.Recs = wireErr{}, resp.Recs[:0]
	t, err := s.b.Topic(req.Topic)
	if err != nil {
		resp.setErr(err)
		return
	}
	max := req.Max
	if max <= 0 {
		max = 1
	}
	wait := maxFetchWait
	if req.WaitMicros < int64(maxFetchWait/time.Microsecond) {
		wait = time.Duration(req.WaitMicros) * time.Microsecond
	}
	deadline := time.Now().Add(wait)
	s.mu.Lock()
	seen := s.commitGen
	s.mu.Unlock()
	for {
		budget := respBudget
		for _, fp := range req.Parts {
			got := len(resp.Recs)
			if got >= max || budget <= 0 {
				break
			}
			if resp.Recs, err = t.FetchInto(fp.P, fp.Off, max-got, resp.Recs, &sc.pins); err != nil {
				resp.setErr(err)
				return
			}
			resp.Recs, budget = fit(resp.Recs, got, budget)
		}
		if len(resp.Recs) > 0 || !time.Now().Before(deadline) {
			return
		}
		// Nothing visible yet: sleep until a visible limit moves (a
		// quorum commit here, an adopted commit index on a follower).
		s.mu.Lock()
		s.park(&s.commitGen, seen, deadline, sc.timer)
		seen = s.commitGen
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
	}
}

// handleHighWatermarks answers from the leader only: a deposed node's
// watermarks stop moving, so it redirects the caller to the leader.
func (s *Server) handleHighWatermarks(req *hwReq, resp *hwResp) {
	resp.wireErr, resp.HWs = wireErr{}, resp.HWs[:0]
	if err := s.requireLeader(); err != nil {
		resp.setErr(err)
		return
	}
	t, err := s.b.Topic(req.Topic)
	if err != nil {
		resp.setErr(err)
		return
	}
	for _, p := range req.Parts {
		hw, err := t.HighWatermark(p)
		if err != nil {
			resp.setErr(err)
			return
		}
		resp.HWs = append(resp.HWs, hw)
	}
}

// sessionKey names one member of one group.
type sessionKey struct{ group, member string }

func (s *Server) handleJoin(req joinReq) joinResp {
	var resp joinResp
	if err := s.requireLeader(); err != nil {
		resp.setErr(err)
		return resp
	}
	t, err := s.b.Topic(req.Topic)
	if err != nil {
		resp.setErr(err)
		return resp
	}
	s.sessMu.Lock()
	resp.Parts, resp.Offsets, resp.Gen, err = s.b.JoinGroup(req.Group, t, req.Member)
	if err == nil {
		s.sessions[sessionKey{req.Group, req.Member}] = time.Now()
	}
	s.sessMu.Unlock()
	if err != nil {
		resp.setErr(err)
		return resp
	}
	resp.Partitions = t.Partitions()
	// Twenty heartbeats a session: a member stays live through a few
	// lost or late ones, and the janitor, which sweeps every third of a
	// session, never expires one that keeps the pace.
	resp.Heartbeat = s.opts.SessionTimeout / 20
	return resp
}

// stampSession refreshes a member's liveness stamp; a member without a
// session (it left, or the janitor expired it) gets ErrNotMember.
func (s *Server) stampSession(group, member string) error {
	key := sessionKey{group, member}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if _, ok := s.sessions[key]; !ok {
		return broker.ErrNotMember
	}
	s.sessions[key] = time.Now()
	return nil
}

// endSessionLocked drops a member's session and its group membership.
// Caller holds s.sessMu.
func (s *Server) endSessionLocked(key sessionKey) {
	delete(s.sessions, key)
	s.b.LeaveGroup(key.group, key.member)
}

func (s *Server) handleLeave(req leaveReq) leaveResp {
	key := sessionKey{req.Group, req.Member}
	s.sessMu.Lock()
	if _, ok := s.sessions[key]; ok {
		s.endSessionLocked(key)
	}
	s.sessMu.Unlock()
	return leaveResp{}
}

func (s *Server) handleCommit(req *commitReq, resp *commitResp, offsets map[int]int64) {
	*resp = commitResp{}
	if err := s.requireLeader(); err != nil {
		resp.setErr(err)
		return
	}
	if err := s.stampSession(req.Group, req.Member); err != nil {
		resp.setErr(err)
		return
	}
	clear(offsets)
	for _, po := range req.Offsets {
		offsets[po.P] = po.Off
	}
	if err := s.b.GroupCommit(req.Group, req.Gen, offsets); err != nil {
		resp.setErr(err)
	}
}

// handleGroupCommitted answers the group audit from the leader's
// coordinator only: a follower's offsets are the gossip it was last
// fed, so it redirects the caller to the leader.
func (s *Server) handleGroupCommitted(req groupCommittedReq) groupCommittedResp {
	var resp groupCommittedResp
	if err := s.requireLeader(); err != nil {
		resp.setErr(err)
		return resp
	}
	offsets, err := s.b.GroupCommitted(req.Group)
	if err != nil {
		resp.setErr(err)
		return resp
	}
	resp.Offsets = offsets
	return resp
}

func (s *Server) handleHeartbeat(req *heartbeatReq, resp *heartbeatResp) {
	*resp = heartbeatResp{}
	if err := s.requireLeader(); err != nil {
		resp.setErr(err)
		return
	}
	// The member compares the generation with its assignment's: a
	// membership change since it last read one is its cue to refresh.
	err := s.stampSession(req.Group, req.Member)
	if err == nil {
		resp.Gen, err = s.b.GroupGeneration(req.Group)
	}
	if err != nil {
		resp.setErr(err)
	}
}

func (s *Server) handleFetchLog(req *fetchLogReq, resp *fetchResp, pins *broker.Pins) {
	resp.wireErr, resp.Recs = wireErr{}, resp.Recs[:0]
	t, err := s.b.Topic(req.Topic)
	if err != nil {
		resp.setErr(err)
		return
	}
	max := req.Max
	if max <= 0 || max > replBatch {
		max = replBatch
	}
	if resp.Recs, err = t.FetchLogInto(req.Partition, req.Offset, max, resp.Recs, pins); err != nil {
		resp.setErr(err)
		return
	}
	resp.Recs, _ = fit(resp.Recs, 0, respBudget)
}

// janitor expires consumer-group sessions that stopped heartbeating,
// releasing their partitions to surviving members.
func (s *Server) janitor() {
	defer s.wg.Done()
	tick := time.NewTicker(s.opts.SessionTimeout / 3)
	defer tick.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-s.opts.SessionTimeout)
		s.sessMu.Lock()
		for key, seen := range s.sessions {
			if seen.Before(cutoff) {
				s.endSessionLocked(key)
			}
		}
		s.sessMu.Unlock()
	}
}

// publishRole mirrors epoch/leader into the replication metrics.
func (s *Server) publishRole() {
	if s.opts.Repl == nil {
		return
	}
	s.mu.Lock()
	epoch, leader := s.epoch, s.leader
	s.mu.Unlock()
	s.opts.Repl.SetRole(epoch, leader, leader == s.opts.NodeID)
}
