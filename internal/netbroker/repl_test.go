package netbroker_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/metrics"
	"alarmverify/internal/netbroker"
)

// TestReplicationFollowerCatchup produces quorum-acked records on the
// leader and asserts every follower converges to the full log with the
// full commit index (consumer visibility) on its local broker.
func TestReplicationFollowerCatchup(t *testing.T) {
	cl := startCluster(t, 3)
	c, err := netbroker.Dial(cl.addrs, "alarms", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.EnsureTopic(2); err != nil {
		t.Fatal(err)
	}
	p, err := c.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 100
	for i := 0; i < n; i++ {
		if _, _, err := p.SendAt([]byte(fmt.Sprintf("k-%d", i)), []byte(fmt.Sprintf("v-%d", i)), time.Unix(0, int64(i+1))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	for node, b := range cl.brokers {
		node, b := node, b
		waitFor(t, 10*time.Second, fmt.Sprintf("node %d caught up", node), func() bool {
			topic, err := b.Topic("alarms")
			if err != nil {
				return false
			}
			var logged, visible int64
			for part := 0; part < 2; part++ {
				sz, err := topic.LogSize(part)
				if err != nil {
					return false
				}
				logged += sz
				hw, err := topic.HighWatermark(part)
				if err != nil {
					return false
				}
				visible += hw
			}
			return logged == n && visible == n
		})
	}

	// The leader published per-follower lag; once converged it is zero.
	lead := cl.leaderIndex(-1)
	if lead < 0 {
		t.Fatal("no leader")
	}
	waitFor(t, 5*time.Second, "replica lag drains to zero", func() bool {
		for node, lag := range cl.repl[lead].ReplicaLag() {
			if node != lead && lag != 0 {
				return false
			}
		}
		return true
	})
}

// TestLeaderFailoverNoAckedLoss is the in-process half of the chaos
// contract: kill the leader mid-stream and assert (a) a new leader is
// elected, (b) every record acked before or after the kill is present
// at its acked offset with its exact payload on the new leader, and
// (c) committed consumer-group offsets survive via gossip.
func TestLeaderFailoverNoAckedLoss(t *testing.T) {
	cl := startCluster(t, 3)
	c, err := netbroker.Dial(cl.addrs, "alarms", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.EnsureTopic(4); err != nil {
		t.Fatal(err)
	}
	p, err := c.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	type ack struct {
		part int
		off  int64
	}
	acked := make(map[string]ack)
	send := func(i int) {
		key := fmt.Sprintf("dev-%d", i%16)
		val := fmt.Sprintf("alarm-%d", i)
		part, off, err := p.SendAt([]byte(key), []byte(val), time.Unix(0, int64(i+1)))
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		acked[val] = ack{part, off}
	}

	// A second group joins first and commits nothing: it holds every
	// log at offset 0, on the leader and on the followers whose log
	// start follows it, so the check below can read every acked record.
	hold, _, err := c.NewGroupConsumer("audit", "a1")
	if err != nil {
		t.Fatal(err)
	}
	hold.Close()

	const before, after = 150, 100
	for i := 0; i < before; i++ {
		send(i)
	}

	// Consume and commit some progress before the kill so offset
	// gossip has something to preserve.
	cons, _, err := c.NewGroupConsumer("verify", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	consumed := 0
	for consumed < 50 {
		recs, err := pollCopy(cons, 64, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		consumed += len(recs)
	}
	if err := commitPositions(cons); err != nil {
		t.Fatal(err)
	}
	committedBefore := int64(0)
	offs, err := c.GroupCommitted("verify")
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range offs {
		committedBefore += off
	}
	if committedBefore == 0 {
		t.Fatal("nothing committed before the kill")
	}
	// Let at least one replication round gossip the offsets.
	time.Sleep(50 * time.Millisecond)

	// Kill the leader (node 0 at startup).
	oldLeader := cl.leaderIndex(-1)
	if oldLeader < 0 {
		t.Fatal("no leader before kill")
	}
	cl.servers[oldLeader].Close()

	// Producing continues through the failover: SendAt retries until
	// the new leader acks.
	for i := before; i < before+after; i++ {
		send(i)
	}

	newLeader := -1
	waitFor(t, 10*time.Second, "new leader elected", func() bool {
		newLeader = cl.leaderIndex(oldLeader)
		return newLeader >= 0
	})
	if cl.servers[newLeader].Epoch() <= 1 {
		t.Fatalf("new leader still at epoch %d", cl.servers[newLeader].Epoch())
	}
	failedOver := false
	for i, rm := range cl.repl {
		var prom strings.Builder
		rm.WriteProm(&prom)
		if i != oldLeader && !strings.Contains(prom.String(), "alarmverify_broker_failovers_total 0\n") {
			failedOver = true
		}
	}
	if !failedOver {
		t.Fatal("failover counter never incremented")
	}

	// Zero lost acked records: every acked (partition, offset) holds
	// the exact payload on the new leader's replicated log.
	topic, err := cl.brokers[newLeader].Topic("alarms")
	if err != nil {
		t.Fatal(err)
	}
	for val, a := range acked {
		recs, err := topic.FetchLogInto(a.part, a.off, 1, nil, nil)
		if err != nil || len(recs) != 1 {
			t.Fatalf("acked record %q missing at %d/%d: %v", val, a.part, a.off, err)
		}
		if string(recs[0].Value) != val {
			t.Fatalf("acked record at %d/%d holds %q, want %q", a.part, a.off, recs[0].Value, val)
		}
	}

	// Committed group offsets survived the leader's death.
	waitFor(t, 10*time.Second, "group offsets recovered on new leader", func() bool {
		offs, err := c.GroupCommitted("verify")
		if err != nil {
			return false
		}
		var sum int64
		for _, off := range offs {
			sum += off
		}
		return sum >= committedBefore
	})

	// The consumer rejoins at the new leader and drains everything:
	// at-least-once across the failover, so count distinct payloads.
	got := make(map[string]struct{}, len(acked))
	waitFor(t, 30*time.Second, "consumer drains all records via new leader", func() bool {
		recs, err := pollCopy(cons, 64, 50*time.Millisecond)
		if err != nil {
			return false
		}
		for _, r := range recs {
			got[string(r.Value)] = struct{}{}
		}
		return len(got) >= len(acked)-int(committedBefore)
	})
}

// TestDivergentEqualLengthLogReconciled is the regression test for
// size-only log reconciliation: a deposed leader dies holding an
// unacked suffix of the same LENGTH as the records the new leader acks
// at the same offsets. Comparing log sizes cannot tell the two logs
// apart — only the (epoch, offset) check can — so when the deposed
// node comes back believing it still leads its old epoch, the cluster
// must converge on the acked records and the divergent suffix must
// vanish everywhere, no matter who wins the next election.
func TestDivergentEqualLengthLogReconciled(t *testing.T) {
	cl := startCluster(t, 3)
	c, err := netbroker.Dial(cl.addrs, "alarms", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.EnsureTopic(1); err != nil {
		t.Fatal(err)
	}
	p, err := c.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const base, extra = 10, 5
	for i := 0; i < base; i++ {
		if _, _, err := p.SendAt([]byte("k"), []byte(fmt.Sprintf("base-%d", i)), time.Unix(0, int64(i+1))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for node, b := range cl.brokers {
		node, b := node, b
		waitFor(t, 10*time.Second, fmt.Sprintf("node %d replicated the base", node), func() bool {
			topic, err := b.Topic("alarms")
			if err != nil {
				return false
			}
			sz, err := topic.LogSize(0)
			return err == nil && sz == base
		})
	}

	old := cl.leaderIndex(-1)
	if old < 0 {
		t.Fatal("no leader")
	}
	oldEpoch := cl.servers[old].Epoch()
	cl.servers[old].Close()

	// The deposed leader appended a suffix under its old epoch that
	// never reached quorum (simulated by writing its local log
	// directly, exactly what a leader does before followers pull).
	topic0, err := cl.brokers[old].Topic("alarms")
	if err != nil {
		t.Fatal(err)
	}
	lost := make([]broker.Record, extra)
	for i := range lost {
		lost[i] = broker.Record{
			Value:     []byte(fmt.Sprintf("lost-%d", i)),
			Epoch:     oldEpoch,
			Timestamp: time.Unix(0, int64(base+i+1)),
		}
	}
	if _, err := topic0.Append(0, -1, 0, lost); err != nil {
		t.Fatal(err)
	}

	// The survivors elect a new leader and ack the same NUMBER of
	// records at the same offsets under the new epoch: both logs are
	// now base+extra records, divergent from offset base on.
	for i := 0; i < extra; i++ {
		_, off, err := p.SendAt([]byte("k"), []byte(fmt.Sprintf("win-%d", i)), time.Unix(0, int64(base+i+1)))
		if err != nil {
			t.Fatalf("post-failover send %d: %v", i, err)
		}
		if off != int64(base+i) {
			t.Fatalf("post-failover record %d acked at offset %d, want %d", i, off, base+i)
		}
	}

	// The deposed node restarts on its old address, believing it still
	// leads its old epoch. It must step down, rejoin, and lose its
	// divergent suffix — even if it wins a later election, the
	// (epoch, offset) comparison makes it adopt the acked log.
	cl.restart(t, old)

	for node, b := range cl.brokers {
		node, b := node, b
		waitFor(t, 20*time.Second, fmt.Sprintf("node %d converged on the acked log", node), func() bool {
			topic, err := b.Topic("alarms")
			if err != nil {
				return false
			}
			recs, err := topic.FetchLogInto(0, 0, base+extra+10, nil, nil)
			if err != nil || len(recs) != base+extra {
				return false
			}
			for i := 0; i < base; i++ {
				if string(recs[i].Value) != fmt.Sprintf("base-%d", i) {
					return false
				}
			}
			for i := 0; i < extra; i++ {
				if string(recs[base+i].Value) != fmt.Sprintf("win-%d", i) {
					return false
				}
			}
			return true
		})
	}
}

// TestLeaderStepsDownWithoutFollowerQuorum starts only node 0 of a
// three-node configuration: it boots believing it leads epoch 1, but
// no follower ever pulls, so within the election timeout it must
// demote itself — and, unable to assemble a vote quorum, stay a
// follower — instead of indefinitely serving stale state and burning
// every append on the full ack timeout.
func TestLeaderStepsDownWithoutFollowerQuorum(t *testing.T) {
	addrs := freeAddrs(t, 3)
	b := broker.New()
	srv, err := netbroker.NewServer(b, addrs[0], clusterOpts(0, addrs, metrics.NewReplication()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	t.Cleanup(func() { b.Close() })
	if !srv.IsLeader() {
		t.Fatal("node 0 does not boot as leader")
	}
	waitFor(t, 5*time.Second, "lone leader steps down", func() bool {
		return !srv.IsLeader()
	})
	// And it stays down: elections without a quorum cannot be won.
	time.Sleep(500 * time.Millisecond)
	if srv.IsLeader() {
		t.Fatal("lone node re-elected itself without a quorum")
	}
}

// TestFollowerDeathKeepsQuorum kills one follower of a 3-node set:
// appends still reach quorum (2 of 3) and ack.
func TestFollowerDeathKeepsQuorum(t *testing.T) {
	cl := startCluster(t, 3)
	c, err := netbroker.Dial(cl.addrs, "alarms", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.EnsureTopic(2); err != nil {
		t.Fatal(err)
	}
	p, err := c.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, _, err := p.SendAt([]byte("k"), []byte("v0"), time.Time{}); err != nil {
		t.Fatal(err)
	}

	lead := cl.leaderIndex(-1)
	follower := (lead + 1) % 3
	cl.servers[follower].Close()

	for i := 1; i <= 20; i++ {
		if _, _, err := p.SendAt([]byte(fmt.Sprintf("k-%d", i)), []byte(fmt.Sprintf("v-%d", i)), time.Time{}); err != nil {
			t.Fatalf("send %d with one follower down: %v", i, err)
		}
	}
}
