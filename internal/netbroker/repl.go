package netbroker

import (
	"errors"
	"fmt"
	"time"

	"alarmverify/internal/broker"
)

// replBatch bounds records shipped per partition per replication
// round-trip.
const replBatch = 512

// respBudget bounds the encoded size of the records packed into one
// response (replication pull, log fetch, consumer fetch), counted
// exactly (recordLen). Half of MaxFrame leaves the rest of the body
// generous room: without the budget, a response spanning many
// partitions or large values could exceed MaxFrame, fail the frame
// write, and — since the peer's next request regenerates the same
// oversized response — wedge permanently.
const respBudget = MaxFrame / 2

// localState snapshots every local topic's per-partition log sizes and
// tail epochs (the epoch of each partition's last record) for the
// election messages.
func (s *Server) localState() (sizes, tails map[string][]int64) {
	sizes = make(map[string][]int64)
	tails = make(map[string][]int64)
	for _, t := range s.b.AppendTopics(nil) {
		sz := make([]int64, t.Partitions())
		te := make([]int64, t.Partitions())
		for p := range sz {
			sz[p], te[p], _ = t.LogTail(p)
		}
		sizes[t.Name()] = sz
		tails[t.Name()] = te
	}
	return sizes, tails
}

// logStarts snapshots every local topic's per-partition log starts and
// the epochs of the records just below them, for the vote response.
func (s *Server) logStarts() (starts, epochs map[string][]int64) {
	starts = make(map[string][]int64)
	epochs = make(map[string][]int64)
	for _, t := range s.b.AppendTopics(nil) {
		st := make([]int64, t.Partitions())
		ep := make([]int64, t.Partitions())
		for p := range st {
			st[p], ep[p], _ = t.LogStart(p)
		}
		starts[t.Name()] = st
		epochs[t.Name()] = ep
	}
	return starts, epochs
}

// at reads a per-partition slice that may be shorter than the
// partition count (an older or topic-less peer), defaulting to zero.
func at(v []int64, p int) int64 {
	if p < len(v) {
		return v[p]
	}
	return 0
}

// handleReplFetch serves a follower pull on the leader: the request's
// Sizes are replication acks (they advance the quorum commit index),
// the response ships the records past them plus commit indexes and
// gossiped consumer-group offsets. A pull with nothing to ship is held
// until the local log grows or ReplInterval passes, so an append costs
// one pull round-trip per follower — the records go out on the parked
// pull, the ack comes back as the next one — and an idle set exchanges
// one heartbeat per ReplInterval.
//
// An ack is counted only after verifying the follower's log is a true
// prefix of the leader's: the epoch of the follower's last record must
// match the leader's record at the same offset. A follower holding an
// equal-length divergent log (a deposed leader's unacked suffix) would
// otherwise ack sizes it does not actually replicate, corrupting the
// quorum commit; instead it gets a truncate instruction and re-syncs.
func (s *Server) handleReplFetch(req *replFetchReq, resp *replFetchResp, sc *connScratch) {
	resp.wireErr = wireErr{}
	resp.Topics, resp.Recs, resp.Truncs, resp.Groups = resp.Topics[:0], resp.Recs[:0], resp.Truncs[:0], resp.Groups[:0]
	s.mu.Lock()
	resp.Epoch = s.epoch
	resp.Leader = s.leader
	if s.leader != s.opts.NodeID || req.Epoch > s.epoch {
		// Not leading (or the follower knows a newer epoch): answer
		// with our view so the follower re-aims, ship nothing.
		s.mu.Unlock()
		return
	}
	// The pull is proof a follower still recognizes this leader; the
	// step-down check counts these against the quorum.
	s.lastPull[req.NodeID] = time.Now()
	// Read before looking at the log: an append after this point either
	// is found by the scan below or ends the park.
	seen := s.logGen
	s.mu.Unlock()

	// Verify each reported partition before counting its ack: a size
	// that fails is zeroed, so req's Sizes become the acks.
	sc.topics = s.b.AppendTopics(sc.topics[:0])
	for _, t := range sc.topics {
		rt := req.topic(t.Name())
		if rt == nil {
			continue
		}
		for p, size := range rt.Sizes {
			ok, trunc := s.verifyPrefix(t, p, size, at(rt.Tails, p))
			if ok {
				continue
			}
			rt.Sizes[p] = 0
			if trunc >= 0 {
				resp.Truncs = append(resp.Truncs, truncAt{Topic: t.Name(), P: p, Size: trunc})
			}
		}
		s.mu.Lock()
		m := s.match[rt.Name]
		if m == nil {
			m = make(map[int][]int64)
			s.match[rt.Name] = m
		}
		m[req.NodeID] = append(m[req.NodeID][:0], rt.Sizes...)
		s.advanceLocked(rt.Name, t)
		s.mu.Unlock()
	}
	s.publishLag(req, sc.topics)

	s.shipLog(req, resp, sc.topics, &sc.pins)
	if len(resp.Recs) == 0 && len(resp.Truncs) == 0 {
		s.mu.Lock()
		grew := s.park(&s.logGen, seen, time.Now().Add(s.opts.ReplInterval), sc.timer)
		s.mu.Unlock()
		if grew {
			s.shipLog(req, resp, sc.topics, &sc.pins)
		}
	}
	s.mu.Lock()
	for i, t := range sc.topics {
		// A topic created on the broker directly has no commit indexes
		// yet: zeros, one per partition.
		rt := &resp.Topics[i]
		c := rt.Commits[:0]
		c = append(c, s.commits[t.Name()]...)
		for len(c) < t.Partitions() {
			c = append(c, 0)
		}
		rt.Commits = c
	}
	s.mu.Unlock()
	for i, t := range sc.topics {
		// Every response announces the log starts: a follower holds
		// its own at them, and one whose log ends below resets to it.
		rt := &resp.Topics[i]
		rt.Starts, rt.StartEpochs = rt.Starts[:0], rt.StartEpochs[:0]
		for p := 0; p < t.Partitions(); p++ {
			start, epoch, _ := t.LogStart(p)
			rt.Starts, rt.StartEpochs = append(rt.Starts, start), append(rt.StartEpochs, epoch)
		}
	}
	resp.Groups = s.b.AppendGroupOffsets(resp.Groups)
}

// shipLog lists topics in resp.Topics, index for index, and fills
// resp.Recs with the records past the follower's verified sizes, or
// past the log start for a follower whose log ends below it, pinning
// the partitions read and skipping partitions that must truncate
// first.
//
//alarmvet:hotpath
func (s *Server) shipLog(req *replFetchReq, resp *replFetchResp, topics []*broker.Topic, pins *broker.Pins) {
	resp.Topics, resp.Recs = resp.Topics[:0], resp.Recs[:0]
	budget := respBudget
	for _, t := range topics {
		var rt *topicCommits
		resp.Topics, rt = next(resp.Topics)
		rt.Name = t.Name()
		var acked []int64
		if ft := req.topic(rt.Name); ft != nil {
			acked = ft.Sizes
		}
		for p := 0; p < t.Partitions() && budget > 0; p++ {
			if resp.truncates(rt.Name, p) {
				continue // the follower must truncate before pulling records
			}
			from := len(resp.Recs)
			// A follower whose log ends below the log start gets the
			// records from the start on, after it resets to it.
			start, _, _ := t.LogStart(p)
			recs, err := t.FetchLogInto(p, max(at(acked, p), start), replBatch, resp.Recs, pins)
			if err != nil {
				continue
			}
			resp.Recs, budget = fit(recs, from, budget)
		}
	}
}

// truncates reports whether resp tells the follower to truncate the
// partition.
func (m *replFetchResp) truncates(topic string, p int) bool {
	for i := range m.Truncs {
		if m.Truncs[i].P == p && m.Truncs[i].Topic == topic {
			return true
		}
	}
	return false
}

// verifyPrefix checks that a follower's reported log (size records,
// last record appended in epoch tailEpoch) is a true prefix of the
// leader's local log. On mismatch it returns the size the follower
// should truncate to: back to the leader's size when the follower is
// longer, else one record back — each pull round re-checks one offset
// earlier, so the pair converges on the divergence point and re-syncs
// forward from there (trunc -1 means no instruction, e.g. an
// unreadable partition).
func (s *Server) verifyPrefix(t *broker.Topic, p int, size, tailEpoch int64) (ok bool, trunc int64) {
	if size == 0 {
		return true, -1 // the empty log is a prefix of anything
	}
	local, err := t.LogSize(p)
	if err != nil {
		return false, -1
	}
	if size > local {
		return false, local
	}
	e, err := t.EpochAt(p, size-1)
	if err != nil {
		return false, -1
	}
	if e == tailEpoch {
		return true, -1
	}
	return false, size - 1
}

// publishLag mirrors one follower's replication lag — the leader's log
// sizes less the acks in req — into the metrics.
func (s *Server) publishLag(req *replFetchReq, topics []*broker.Topic) {
	if s.opts.Repl == nil {
		return
	}
	var lag int64
	for _, t := range topics {
		var acked []int64
		if ft := req.topic(t.Name()); ft != nil {
			acked = ft.Sizes
		}
		for p := 0; p < t.Partitions(); p++ {
			if size, _ := t.LogSize(p); size > at(acked, p) {
				lag += size - at(acked, p)
			}
		}
	}
	s.opts.Repl.SetReplicaLag(req.NodeID, lag)
}

// handleVote grants a vote iff the candidate's epoch is newer than any
// epoch this node has seen or voted in. The response carries the
// voter's log sizes and tail epochs: the winner adopts the most
// up-to-date log among its quorum (itself included) before declaring,
// which is the no-lost-acked-records invariant (every quorum-acked
// record lives on at least one member of any vote quorum, and the most
// up-to-date member's log contains all of them).
func (s *Server) handleVote(req voteReq) voteResp {
	var resp voteResp
	s.mu.Lock()
	resp.Epoch = s.epoch
	if req.Epoch > s.epoch && req.Epoch > s.votedEpoch {
		s.votedEpoch = req.Epoch
		// Leaderless until the winner declares; reset the contact clock
		// so this node doesn't immediately stand itself.
		s.leader = -1
		s.lastContact = time.Now()
		resp.Granted = true
	}
	s.mu.Unlock()
	if resp.Granted {
		resp.Sizes, resp.Tails = s.localState()
		resp.Starts, resp.StartEpochs = s.logStarts()
		resp.Partitions = s.topicSizes()
		s.publishRole()
	}
	return resp
}

// handleDeclare installs a reconciled leader for a new epoch: local
// logs longer than the leader's truncate their (never-quorum-acked)
// suffixes, and missing topics are created.
func (s *Server) handleDeclare(req declareReq) declareResp {
	var resp declareResp
	s.mu.Lock()
	accept := req.Epoch >= s.epoch && req.Epoch >= s.votedEpoch
	if accept {
		s.epoch = req.Epoch
		s.votedEpoch = req.Epoch
		s.leader = req.Leader
		s.lastContact = time.Now()
		if req.Leader != s.opts.NodeID {
			// Follower again: leader-side ack state is stale.
			s.match = make(map[string]map[int][]int64)
		}
		s.cond.Broadcast()
	}
	resp.Epoch = s.epoch
	s.mu.Unlock()
	if !accept {
		return resp
	}
	s.publishRole()
	s.ensureLocalTopics(req.Partitions)
	for name, sizes := range req.Sizes {
		t, err := s.b.Topic(name)
		if err != nil {
			continue
		}
		for p, size := range sizes {
			local, err := t.LogSize(p)
			if err != nil || local <= size {
				continue
			}
			if err := t.Truncate(p, size); err != nil {
				// Truncating below the visible limit would violate the
				// commit invariant; by construction the new leader's log
				// covers every committed record, so this is unreachable
				// unless state is corrupt — leave the log alone.
				continue
			}
		}
	}
	return resp
}

// ensureLocalTopics creates any topics this node has not seen yet.
func (s *Server) ensureLocalTopics(partitions map[string]int) {
	for name, parts := range partitions {
		s.ensureLocalTopic(name, parts)
	}
}

// ensureLocalTopic creates a topic this node has not seen yet, under
// replicated visibility, and returns it (nil when it cannot exist).
func (s *Server) ensureLocalTopic(name string, parts int) *broker.Topic {
	if t, err := s.b.Topic(name); err == nil {
		return t
	}
	t, err := s.b.CreateTopic(name, parts)
	if err != nil {
		return nil
	}
	s.initTopic(name, t)
	return t
}

// replLoop is the follower side of replication: keep one pull
// outstanding at the current leader, which paces it (a pull with
// nothing to ship is held there up to ReplInterval); a pull the leader
// did not serve — not leader, unreachable, nothing applied — waits for
// the ReplInterval ticker instead, so an election window cannot spin.
// When the leader goes silent past the (NodeID-staggered) election
// timeout, stand for election. A node that believes it leads instead
// verifies it still hears a follower quorum — a leader partitioned away
// during an election would otherwise never learn it was deposed and
// indefinitely serve stale state.
func (s *Server) replLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.opts.ReplInterval)
	defer tick.Stop()
	served := false
	for {
		if !served {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
		served = false
		s.mu.Lock()
		closed := s.closed
		leader := s.leader
		self := leader == s.opts.NodeID
		silent := time.Since(s.lastContact)
		s.mu.Unlock()
		if closed {
			return
		}
		if self {
			s.maybeStepDown()
			continue
		}
		if leader >= 0 && leader < len(s.opts.Peers) {
			var err error
			if served, err = s.pullFrom(leader); err == nil {
				continue
			}
		}
		if silent > s.opts.ElectionTimeout {
			s.runElection()
		}
	}
}

// maybeStepDown demotes a self-believed leader that has not heard a
// replication pull from a follower quorum within the election timeout:
// it can no longer commit anything, and a newer epoch may already
// exist on the other side of a partition. Stepping down to follower
// fails pending ack waits with ErrNotLeader (instead of each burning
// the full AckTimeout) and funnels the node back through the ordinary
// election path, where reconciliation repairs any divergent suffix it
// accumulated.
func (s *Server) maybeStepDown() {
	cutoff := time.Now().Add(-s.opts.ElectionTimeout)
	s.mu.Lock()
	if s.leader != s.opts.NodeID || s.leadSince.After(cutoff) {
		s.mu.Unlock()
		return
	}
	heard := 1 // self
	for node, ts := range s.lastPull {
		if node != s.opts.NodeID && ts.After(cutoff) {
			heard++
		}
	}
	if heard >= s.quorum {
		s.mu.Unlock()
		return
	}
	s.leader = -1
	s.lastContact = time.Now()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.publishRole()
}

// pullFrom performs one replication round-trip against the leader and
// applies the response: apply any truncate instructions (divergent
// suffix repair), install shipped records, adopt commit indexes as
// visible limits, merge gossiped group offsets, adopt any newer epoch.
// served reports that the node answered as leader and the exchange did
// what a pull is for — it applied what was shipped, or shipped nothing
// because the leader held the pull — so the next pull may follow at
// once: it carries the ack and becomes the next held pull.
func (s *Server) pullFrom(leader int) (served bool, err error) {
	peer, rc, err := s.peerConn(leader)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	epoch := s.epoch
	s.mu.Unlock()
	req, resp := &s.pull.req, &s.pull.resp
	req.NodeID, req.Epoch, req.Topics = s.opts.NodeID, epoch, req.Topics[:0]
	s.pull.topics = s.b.AppendTopics(s.pull.topics[:0])
	for _, t := range s.pull.topics {
		var rt *topicTails
		req.Topics, rt = next(req.Topics)
		rt.Name, rt.Sizes, rt.Tails = t.Name(), rt.Sizes[:0], rt.Tails[:0]
		for p := 0; p < t.Partitions(); p++ {
			size, tail, _ := t.LogTail(p)
			rt.Sizes, rt.Tails = append(rt.Sizes, size), append(rt.Tails, tail)
		}
	}
	if err := rc.callWire(opReplFetch, req, resp, nil); err != nil {
		peer.drop(rc)
		return false, err
	}
	s.mu.Lock()
	if resp.Epoch > s.epoch {
		s.epoch = resp.Epoch
		s.leader = resp.Leader
		s.cond.Broadcast()
	} else if resp.Epoch == s.epoch && resp.Leader != s.leader && resp.Leader >= 0 {
		s.leader = resp.Leader
	}
	s.lastContact = time.Now()
	stillFollower := s.leader != s.opts.NodeID && s.leader == leader
	s.mu.Unlock()
	s.publishRole()
	if !stillFollower || resp.Leader != leader || resp.Epoch < epoch {
		return false, nil
	}
	applied := 0
	for _, tr := range resp.Truncs {
		t, err := s.b.Topic(tr.Topic)
		if err != nil {
			continue
		}
		if err := t.Truncate(tr.P, tr.Size); err != nil {
			// Truncating below the visible limit would violate the
			// commit invariant; the leader's log covers every committed
			// record, so this is unreachable unless state is corrupt —
			// leave the log alone.
			continue
		}
		applied++
	}
	recs := resp.Recs
	for i := range resp.Topics {
		rt := &resp.Topics[i]
		t := s.ensureLocalTopic(rt.Name, len(rt.Commits))
		if t != nil {
			applied += followLogStart(t, rt)
		}
		for len(recs) > 0 && recs[0].Topic == rt.Name {
			run := recs[:runLen(recs)]
			recs = recs[len(run):]
			if t == nil || t.AppendReplica(run[0].Partition, run) != nil {
				// Out-of-order chunk (e.g. a truncation raced the
				// fetch): skip, the next pull restarts from our size.
				continue
			}
			applied++
		}
		if t == nil {
			continue
		}
		s.mu.Lock()
		local := s.commits[rt.Name]
		if len(local) < len(rt.Commits) {
			grown := make([]int64, len(rt.Commits))
			copy(grown, local)
			local = grown
			s.commits[rt.Name] = local
		}
		moved := false
		for p, c := range rt.Commits {
			if resp.truncates(rt.Name, p) {
				// Not a prefix of the leader's log yet: a visible limit
				// over the divergent tail would refuse the truncations
				// still to come.
				continue
			}
			if c > local[p] {
				local[p] = c
				moved = true
			}
			t.SetVisibleLimit(p, c)
		}
		if moved {
			s.commitGen++
			s.cond.Broadcast() // consumer fetches parked on this follower
		}
		s.mu.Unlock()
	}
	var t *broker.Topic
	for i := range resp.Groups {
		g := &resp.Groups[i]
		if t == nil || t.Name() != g.Topic {
			t, _ = s.b.Topic(g.Topic)
		}
		if t != nil {
			// Best-effort: a promoted leader seeds its coordinator from
			// this gossip, clamped monotonically.
			_ = s.b.SeedGroupOffset(g.Group, t, g.Partition, g.Offset)
		}
	}
	return applied > 0 || len(resp.Recs)+len(resp.Truncs) == 0, nil
}

// followLogStart applies the leader's log starts to a follower's topic:
// a partition whose log ends below the leader's start is reset to it
// (the leader released the records between, and ships from its start),
// and every partition's log start is held at the leader's. It returns
// how many partitions it reset.
func followLogStart(t *broker.Topic, rt *topicCommits) (resets int) {
	for p, start := range rt.Starts {
		if size, err := t.LogSize(p); err == nil && size < start {
			if t.ResetLog(p, start, rt.StartEpochs[p]) == nil {
				resets++
			}
		}
		t.SetLogStartFloor(p, start)
	}
	return resets
}

// runElection stands this node for leadership: collect votes for a
// fresh epoch, and if a quorum grants them, adopt the most up-to-date
// log — max (tail epoch, size), compared per partition — among this
// node and its voters, truncating any divergent local suffix, then
// declare.
func (s *Server) runElection() {
	s.mu.Lock()
	newEpoch := s.epoch
	if s.votedEpoch > newEpoch {
		newEpoch = s.votedEpoch
	}
	newEpoch++
	s.votedEpoch = newEpoch
	// Don't stand again until this round times out.
	s.lastContact = time.Now()
	s.mu.Unlock()

	votes := 1 // own
	type voterState struct {
		node                int
		sizes, tails        map[string][]int64
		starts, startEpochs map[string][]int64
	}
	var voters []voterState
	partitions := s.topicSizes()
	for node := range s.opts.Peers {
		if node == s.opts.NodeID {
			continue
		}
		peer, rc, err := s.peerConn(node)
		if err != nil {
			continue
		}
		var resp voteResp
		if err := rc.call(opVote, voteReq{Epoch: newEpoch, NodeID: s.opts.NodeID}, &resp); err != nil {
			peer.drop(rc)
			continue
		}
		if !resp.Granted {
			if resp.Epoch >= newEpoch {
				// Lost to a newer epoch; stand down this round.
				return
			}
			continue
		}
		votes++
		voters = append(voters, voterState{node: node, sizes: resp.Sizes, tails: resp.Tails,
			starts: resp.Starts, startEpochs: resp.StartEpochs})
		for name, parts := range resp.Partitions {
			if partitions[name] < parts {
				partitions[name] = parts
			}
		}
	}
	if votes < s.quorum {
		return
	}
	// Reconcile before declaring: per partition, the canonical log is
	// the most up-to-date — max (tail epoch, size) — among this node
	// and its voters. Any quorum-acked record is on at least one voter
	// of this quorum, and the most up-to-date log contains every such
	// record (a record appended at (epoch, offset) implies its whole
	// prefix matches that epoch's leader), so adopting it — truncating
	// our own divergent suffix first if a voter wins — loses nothing
	// acked. Note a divergent equal-or-longer local log deliberately
	// does NOT win on size: a stale tail epoch loses to a newer one.
	s.ensureLocalTopics(partitions)
	for name, parts := range partitions {
		t, err := s.b.Topic(name)
		if err != nil {
			return
		}
		for p := 0; p < parts; p++ {
			localSize, localTail, err := t.LogTail(p)
			if err != nil {
				return
			}
			best, bestSize, bestTail := -1, localSize, localTail
			for i, v := range voters {
				sz, te := at(v.sizes[name], p), at(v.tails[name], p)
				if te > bestTail || (te == bestTail && sz > bestSize) {
					best, bestSize, bestTail = i, sz, te
				}
			}
			if best < 0 {
				continue // own log is the most up to date
			}
			v := voters[best]
			start, startEpoch := at(v.starts[name], p), at(v.startEpochs[name], p)
			if !s.reconcilePartition(t, name, p, bestSize, start, startEpoch, v.node) {
				return // can't guarantee completeness; stand down
			}
		}
	}
	s.mu.Lock()
	if s.epoch >= newEpoch {
		// A competing declare landed while reconciling.
		s.mu.Unlock()
		return
	}
	s.epoch = newEpoch
	s.leader = s.opts.NodeID
	s.match = make(map[string]map[int][]int64)
	s.lastPull = make(map[int]time.Time)
	s.leadSince = time.Now()
	s.lastContact = time.Now()
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.opts.Repl != nil {
		s.opts.Repl.AddFailover()
	}
	s.publishRole()
	sizes, _ := s.localState()
	declare := declareReq{
		Epoch:      newEpoch,
		Leader:     s.opts.NodeID,
		Sizes:      sizes,
		Partitions: s.topicSizes(),
	}
	for node := range s.opts.Peers {
		if node == s.opts.NodeID {
			continue
		}
		peer, rc, err := s.peerConn(node)
		if err != nil {
			continue
		}
		var resp declareResp
		if err := rc.call(opDeclare, declare, &resp); err != nil {
			peer.drop(rc)
		}
	}
}

// reconcilePartition makes the local log of one partition equal the
// canonical (most up-to-date) voter's: back up past any divergent
// local suffix — truncating record by record while the (epoch, offset)
// pair at the local tail disagrees with the voter's — then pull
// forward to the voter's size. A local log that ends below the voter's
// log start first moves to it (start, with startEpoch the epoch below
// it): the records between are committed and released on the voter.
// Reports whether the local log reached the voter's size; a false
// return means the election must stand down.
func (s *Server) reconcilePartition(t *broker.Topic, name string, p int, theirs, start, startEpoch int64, node int) bool {
	if t.ResetLog(p, start, startEpoch) != nil {
		return false
	}
	for {
		local, localTail, err := t.LogTail(p)
		if err != nil {
			return false
		}
		if local == 0 {
			break // the empty log is a prefix of anything
		}
		if local > theirs {
			if t.Truncate(p, theirs) != nil {
				return false
			}
			continue
		}
		peer, rc, err := s.peerConn(node)
		if err != nil {
			return false
		}
		var resp fetchResp
		req := fetchLogReq{Topic: name, Partition: p, Offset: local - 1, Max: 1}
		if err := rc.callWire(opFetchLog, &req, &resp, nil); err != nil {
			if errors.Is(err, broker.ErrBelowLogStart) {
				// Below the voter's log start every record is committed
				// and on every follower, so the prefixes agree.
				break
			}
			peer.drop(rc)
			return false
		}
		if len(resp.Recs) == 0 {
			return false // voter log shrank under us; stand down
		}
		if resp.Recs[0].Epoch == localTail {
			break // prefixes agree; pure catch-up from here
		}
		if t.Truncate(p, local-1) != nil {
			return false
		}
	}
	return s.syncPartition(t, name, p, theirs, node)
}

// syncPartition pulls records [local size, theirs) of one partition
// from a voter, reporting whether the local log reached theirs.
func (s *Server) syncPartition(t *broker.Topic, name string, p int, theirs int64, node int) bool {
	for {
		local, err := t.LogSize(p)
		if err != nil || local >= theirs {
			return err == nil
		}
		peer, rc, err := s.peerConn(node)
		if err != nil {
			return false
		}
		var resp fetchResp
		req := fetchLogReq{Topic: name, Partition: p, Offset: local, Max: replBatch}
		if err := rc.callWire(opFetchLog, &req, &resp, nil); err != nil {
			peer.drop(rc)
			return false
		}
		// The records point into the peer connection's receive buffer;
		// the log copies them before the next call reuses it.
		if len(resp.Recs) == 0 || t.AppendReplica(p, resp.Recs) != nil {
			return false
		}
	}
}

// peerConn returns node's connection slot, built on first use, and
// the connection it holds, dialed with a 250 ms timeout when it is empty.
func (s *Server) peerConn(node int) (*connSlot, *rpcConn, error) {
	s.peerMu.Lock()
	ps := s.peers[node]
	switch {
	case ps != nil:
	case s.peers == nil:
		s.peerMu.Unlock()
		return nil, nil, broker.ErrClosed
	case node < 0 || node >= len(s.opts.Peers):
		s.peerMu.Unlock()
		return nil, nil, fmt.Errorf("netbroker: no peer %d", node)
	default:
		addr := s.opts.Peers[node]
		ps = &connSlot{dial: func() (*rpcConn, error) { return dialRPC(addr, 250*time.Millisecond) }}
		if repl := s.opts.Repl; repl != nil {
			ps.reconnected = func() { repl.AddPeerReconnect(node) }
		}
		s.peers[node] = ps
	}
	s.peerMu.Unlock()
	rc, err := ps.get()
	return ps, rc, err
}
