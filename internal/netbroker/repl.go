package netbroker

import (
	"fmt"
	"slices"
	"time"

	"alarmverify/internal/broker"
)

// replBatch bounds records shipped per partition per replication
// round-trip.
const replBatch = 512

// respBudget bounds the approximate encoded size of the records packed
// into one response (replication pull, log fetch, consumer fetch).
// Half of MaxFrame leaves generous headroom for base64 expansion
// estimation error plus the rest of the body: without the budget, a
// response spanning many partitions or large values could exceed
// MaxFrame, fail the frame write, and — since the peer's next request
// regenerates the same oversized response — wedge permanently.
const respBudget = MaxFrame / 2

// localSizes snapshots every local topic's per-partition log sizes.
func (s *Server) localSizes() map[string][]int64 {
	sizes, _ := s.localState()
	return sizes
}

// localState snapshots every local topic's per-partition log sizes and
// tail epochs (the epoch of each partition's last record).
func (s *Server) localState() (sizes, tails map[string][]int64) {
	sizes = make(map[string][]int64)
	tails = make(map[string][]int64)
	for name, parts := range s.topicSizes() {
		t, err := s.b.Topic(name)
		if err != nil {
			continue
		}
		sz := make([]int64, parts)
		te := make([]int64, parts)
		for p := 0; p < parts; p++ {
			sz[p], te[p], _ = t.LogTail(p)
		}
		sizes[name] = sz
		tails[name] = te
	}
	return sizes, tails
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
func (s *Server) handleReplFetch(req replFetchReq) replFetchResp {
	var resp replFetchResp
	s.mu.Lock()
	resp.Epoch = s.epoch
	resp.Leader = s.leader
	if s.leader != s.opts.NodeID || req.Epoch > s.epoch {
		// Not leading (or the follower knows a newer epoch): answer
		// with our view so the follower re-aims, ship nothing.
		s.mu.Unlock()
		return resp
	}
	// The pull is proof a follower still recognizes this leader; the
	// step-down check counts these against the quorum.
	s.lastPull[req.NodeID] = time.Now()
	// Read before looking at the log: an append after this point either
	// is found by the scan below or ends the park.
	seen := s.logGen
	s.mu.Unlock()

	// Verify each reported partition before counting its ack.
	verified := make(map[string][]int64, len(req.Sizes))
	for name, sizes := range req.Sizes {
		t, err := s.b.Topic(name)
		if err != nil {
			continue
		}
		tails := req.Tails[name]
		acks := make([]int64, len(sizes))
		for p, size := range sizes {
			ok, trunc := s.verifyPrefix(t, p, size, at(tails, p))
			if ok {
				acks[p] = size
				continue
			}
			if trunc >= 0 {
				if resp.Truncs == nil {
					resp.Truncs = make(map[string]map[int]int64)
				}
				if resp.Truncs[name] == nil {
					resp.Truncs[name] = make(map[int]int64)
				}
				resp.Truncs[name][p] = trunc
			}
		}
		verified[name] = acks
	}
	s.mu.Lock()
	for name, acks := range verified {
		m := s.match[name]
		if m == nil {
			m = make(map[int][]int64)
			s.match[name] = m
		}
		m[req.NodeID] = acks
	}
	s.mu.Unlock()
	for name := range verified {
		if t, err := s.b.Topic(name); err == nil {
			s.advance(name, t)
		}
	}
	s.publishLag(req.NodeID, verified)

	s.shipLog(&resp, verified)
	if len(resp.Recs) == 0 && len(resp.Truncs) == 0 {
		s.mu.Lock()
		grew := s.park(&s.logGen, seen, time.Now().Add(s.opts.ReplInterval))
		s.mu.Unlock()
		if grew {
			s.shipLog(&resp, verified)
		}
	}
	resp.Commits = make(map[string][]int64, len(resp.Partitions))
	s.mu.Lock()
	for name := range resp.Partitions {
		resp.Commits[name] = slices.Clone(s.commits[name])
	}
	s.mu.Unlock()
	resp.Groups = make(map[string]groupState)
	for g, topicName := range s.b.GroupTopics() {
		if offs, err := s.b.GroupCommitted(g); err == nil {
			resp.Groups[g] = groupState{Topic: topicName, Offsets: offs}
		}
	}
	return resp
}

// shipLog fills resp with every topic's partition count and the records
// past the follower's verified sizes, skipping partitions that must
// truncate first.
func (s *Server) shipLog(resp *replFetchResp, verified map[string][]int64) {
	resp.Partitions = s.topicSizes()
	resp.Recs = make(map[string]map[int][]wireRecord)
	budget := int64(respBudget)
	for name, parts := range resp.Partitions {
		t, err := s.b.Topic(name)
		if err != nil {
			continue
		}
		acked := verified[name]
		for p := 0; p < parts && budget > 0; p++ {
			if resp.Truncs[name] != nil {
				if _, pending := resp.Truncs[name][p]; pending {
					// The follower must truncate before pulling records.
					continue
				}
			}
			from := at(acked, p)
			recs, err := t.FetchLog(p, from, replBatch)
			if err != nil || len(recs) == 0 {
				continue
			}
			ws := make([]wireRecord, 0, len(recs))
			for _, r := range recs {
				// Always ship at least one record per response so a
				// single large record still makes progress; otherwise
				// stop at the budget and let the next pull continue.
				if budget <= 0 && len(ws) > 0 {
					break
				}
				budget -= wireSize(r)
				ws = append(ws, toWire(r))
			}
			pm := resp.Recs[name]
			if pm == nil {
				pm = make(map[int][]wireRecord)
				resp.Recs[name] = pm
			}
			pm[p] = ws
		}
	}
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

// publishLag mirrors one follower's replication lag into the metrics.
func (s *Server) publishLag(node int, acked map[string][]int64) {
	if s.opts.Repl == nil {
		return
	}
	var lag int64
	for name, sizes := range s.localSizes() {
		a := acked[name]
		for p, size := range sizes {
			var v int64
			if p < len(a) {
				v = a[p]
			}
			if size > v {
				lag += size - v
			}
		}
	}
	s.opts.Repl.SetReplicaLag(node, lag)
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

// ensureLocalTopics creates any topics this node has not seen yet,
// under replicated visibility.
func (s *Server) ensureLocalTopics(partitions map[string]int) {
	for name, parts := range partitions {
		if _, err := s.b.Topic(name); err == nil {
			continue
		}
		if t, err := s.b.CreateTopic(name, parts); err == nil {
			s.initTopic(name, t)
		}
	}
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
	rc, err := s.peerConn(leader)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	epoch := s.epoch
	s.mu.Unlock()
	sizes, tails := s.localState()
	req := replFetchReq{NodeID: s.opts.NodeID, Epoch: epoch, Sizes: sizes, Tails: tails}
	var resp replFetchResp
	if err := rc.call(opReplFetch, req, &resp); err != nil {
		s.dropPeerConn(leader, rc)
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
	s.ensureLocalTopics(resp.Partitions)
	for name, parts := range resp.Truncs {
		t, err := s.b.Topic(name)
		if err != nil {
			continue
		}
		for p, target := range parts {
			if err := t.Truncate(p, target); err != nil {
				// Truncating below the visible limit would violate the
				// commit invariant; the leader's log covers every
				// committed record, so this is unreachable unless state
				// is corrupt — leave the log alone.
				continue
			}
			applied++
		}
	}
	for name, parts := range resp.Recs {
		t, err := s.b.Topic(name)
		if err != nil {
			continue
		}
		for p, ws := range parts {
			recs := make([]broker.Record, len(ws))
			for i, w := range ws {
				recs[i] = fromWire(name, w)
			}
			if err := t.AppendReplica(p, recs); err != nil {
				// Out-of-order chunk (e.g. a truncation raced the
				// fetch): skip, the next pull restarts from our size.
				continue
			}
			applied++
		}
	}
	for name, commits := range resp.Commits {
		t, err := s.b.Topic(name)
		if err != nil {
			continue
		}
		s.mu.Lock()
		local := s.commits[name]
		if len(local) < len(commits) {
			grown := make([]int64, len(commits))
			copy(grown, local)
			local = grown
			s.commits[name] = local
		}
		moved := false
		for p, c := range commits {
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
	for g, st := range resp.Groups {
		if t, err := s.b.Topic(st.Topic); err == nil {
			// Best-effort: a promoted leader seeds its coordinator from
			// this gossip, clamped monotonically.
			_ = s.b.SeedGroupOffsets(g, t, st.Offsets)
		}
	}
	return applied > 0 || len(resp.Recs)+len(resp.Truncs) == 0, nil
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
		node  int
		sizes map[string][]int64
		tails map[string][]int64
	}
	var voters []voterState
	partitions := s.topicSizes()
	for node := range s.opts.Peers {
		if node == s.opts.NodeID {
			continue
		}
		rc, err := s.peerConn(node)
		if err != nil {
			continue
		}
		var resp voteResp
		if err := rc.call(opVote, voteReq{Epoch: newEpoch, NodeID: s.opts.NodeID}, &resp); err != nil {
			s.dropPeerConn(node, rc)
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
		voters = append(voters, voterState{node: node, sizes: resp.Sizes, tails: resp.Tails})
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
			bestNode, bestSize, bestTail := -1, localSize, localTail
			for _, v := range voters {
				sz, te := at(v.sizes[name], p), at(v.tails[name], p)
				if te > bestTail || (te == bestTail && sz > bestSize) {
					bestNode, bestSize, bestTail = v.node, sz, te
				}
			}
			if bestNode < 0 {
				continue // own log is the most up to date
			}
			if !s.reconcilePartition(t, name, p, bestSize, bestNode) {
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
	declare := declareReq{
		Epoch:      newEpoch,
		Leader:     s.opts.NodeID,
		Sizes:      s.localSizes(),
		Partitions: s.topicSizes(),
	}
	for node := range s.opts.Peers {
		if node == s.opts.NodeID {
			continue
		}
		rc, err := s.peerConn(node)
		if err != nil {
			continue
		}
		var resp declareResp
		if err := rc.call(opDeclare, declare, &resp); err != nil {
			s.dropPeerConn(node, rc)
		}
	}
}

// reconcilePartition makes the local log of one partition equal the
// canonical (most up-to-date) voter's: back up past any divergent
// local suffix — truncating record by record while the (epoch, offset)
// pair at the local tail disagrees with the voter's — then pull
// forward to the voter's size. Reports whether the local log reached
// it; a false return means the election must stand down.
func (s *Server) reconcilePartition(t *broker.Topic, name string, p int, theirs int64, node int) bool {
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
		rc, err := s.peerConn(node)
		if err != nil {
			return false
		}
		var resp fetchLogResp
		req := fetchLogReq{Topic: name, Partition: p, Offset: local - 1, Max: 1}
		if err := rc.call(opFetchLog, req, &resp); err != nil {
			s.dropPeerConn(node, rc)
			return false
		}
		if len(resp.Recs) == 0 {
			return false // voter log shrank under us; stand down
		}
		if resp.Recs[0].E == localTail {
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
		rc, err := s.peerConn(node)
		if err != nil {
			return false
		}
		var resp fetchLogResp
		req := fetchLogReq{Topic: name, Partition: p, Offset: local, Max: replBatch}
		if err := rc.call(opFetchLog, req, &resp); err != nil {
			s.dropPeerConn(node, rc)
			return false
		}
		if len(resp.Recs) == 0 {
			return false
		}
		recs := make([]broker.Record, len(resp.Recs))
		for i, w := range resp.Recs {
			recs[i] = fromWire(name, w)
		}
		if err := t.AppendReplica(p, recs); err != nil {
			return false
		}
	}
}

// peerConn returns a cached connection to a peer, dialing on demand.
func (s *Server) peerConn(node int) (*rpcConn, error) {
	s.peerMu.Lock()
	rc := s.peerConns[node]
	s.peerMu.Unlock()
	if rc != nil {
		return rc, nil
	}
	if node < 0 || node >= len(s.opts.Peers) {
		return nil, fmt.Errorf("netbroker: no peer %d", node)
	}
	c, err := dialRPC(s.opts.Peers[node], 250*time.Millisecond)
	if err != nil {
		return nil, err
	}
	s.peerMu.Lock()
	if cur := s.peerConns[node]; cur != nil {
		s.peerMu.Unlock()
		c.close()
		return cur, nil
	}
	s.peerConns[node] = c
	s.peerMu.Unlock()
	return c, nil
}

// dropPeerConn discards a failed peer connection so the next call
// redials.
func (s *Server) dropPeerConn(node int, rc *rpcConn) {
	s.peerMu.Lock()
	if s.peerConns[node] == rc {
		delete(s.peerConns, node)
	}
	s.peerMu.Unlock()
	rc.close()
}
