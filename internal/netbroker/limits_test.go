package netbroker_test

import (
	"testing"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/netbroker"
)

// The tests in this file pin two limits ARCHITECTURE.md documents
// under "Delivery invariants, in decreasing strength". Each asserts
// the limit holds today; a durable broker log that carries replication
// state and the dedup window would make them fail, and they should
// then be inverted along with that list.

// leaderAmong waits until one of the given nodes leads and returns it.
func leaderAmong(t *testing.T, cl *testCluster, nodes ...int) int {
	t.Helper()
	leader := -1
	waitFor(t, 10*time.Second, "a leader", func() bool {
		for _, i := range nodes {
			if cl.servers[i].IsLeader() {
				leader = i
				return true
			}
		}
		return false
	})
	return leader
}

// TestRetryAfterFailoverIsStoredTwice pins:
//
//	At-least-once across failover — dedup windows are not replicated,
//	so a retry that lands on the successor can duplicate a record
//	whose ack was lost in flight.
//
// One (producerID, seq) append is deduplicated when it is retried on
// the leader that took it, and stored a second time when the retry
// lands on that leader's successor.
func TestRetryAfterFailoverIsStoredTwice(t *testing.T) {
	cl := startCluster(t, 3)
	c, err := netbroker.Dial(cl.addrs, "alarms", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.EnsureTopic(1); err != nil {
		t.Fatal(err)
	}
	const producerID, seq = 4242, 0
	rec := []broker.Record{{Key: []byte("dev-1"), Value: []byte("alarm-1"), Timestamp: time.Unix(0, 1)}}
	leader := leaderAmong(t, cl, 0, 1, 2)
	if _, err := netbroker.AppendWithSeq(cl.addrs[leader], "alarms", 0, producerID, seq, rec); err != nil {
		t.Fatal(err)
	}
	// Exactly-once under stable leadership: the retry is absorbed.
	if _, err := netbroker.AppendWithSeq(cl.addrs[leader], "alarms", 0, producerID, seq, rec); err != nil {
		t.Fatal(err)
	}
	logSize := func(i int) int64 {
		topic, err := cl.brokers[i].Topic("alarms")
		if err != nil {
			return -1
		}
		n, err := topic.LogSize(0)
		if err != nil {
			return -1
		}
		return n
	}
	if n := logSize(leader); n != 1 {
		t.Fatalf("leader holds %d records after a retry on it, want 1", n)
	}
	// Every node holds the record, so whichever node succeeds has it.
	waitFor(t, 10*time.Second, "the record on every node", func() bool {
		return logSize(0) == 1 && logSize(1) == 1 && logSize(2) == 1
	})

	cl.servers[leader].Close()
	var rest []int
	for i := range cl.servers {
		if i != leader {
			rest = append(rest, i)
		}
	}
	succ := leaderAmong(t, cl, rest...)
	var base int64
	waitFor(t, 10*time.Second, "the successor to ack the retry", func() bool {
		base, err = netbroker.AppendWithSeq(cl.addrs[succ], "alarms", 0, producerID, seq, rec)
		return err == nil
	})
	if base != 1 || logSize(succ) != 2 {
		t.Fatalf("successor acked the retry at offset %d and holds %d records; want offset 1 and 2 records "+
			"(a retry after failover is stored twice)", base, logSize(succ))
	}
	topic, err := cl.brokers[succ].Topic("alarms")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := topic.FetchLogInto(0, 0, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Value) != "alarm-1" || string(recs[1].Value) != "alarm-1" {
		t.Fatalf("successor log %v, want alarm-1 twice", recs)
	}
}

// TestRestartedQuorumLosesAckedRecords pins:
//
//	Replication state is in-memory — a quorum loss (2 of 3 nodes)
//	loses data; durability within a node is the docstore WAL's job,
//	not the broker's, whose partitions live in memory only.
//
// Records acked on all three nodes are gone once two nodes restart
// with fresh brokers while the third is down: the restarted pair is a
// quorum, elects a leader on empty logs, and hands the acked records'
// offsets to new records.
func TestRestartedQuorumLosesAckedRecords(t *testing.T) {
	cl := startCluster(t, 3)
	c, err := netbroker.Dial(cl.addrs, "alarms", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnsureTopic(1); err != nil {
		t.Fatal(err)
	}
	p, err := c.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	const acked = 20
	for i := 0; i < acked; i++ {
		if _, off, err := p.SendAt([]byte("dev-1"), []byte("before"), time.Time{}); err != nil || off != int64(i) {
			t.Fatalf("send %d: offset %d, %v", i, off, err)
		}
	}
	p.Close()
	c.Close()
	waitFor(t, 10*time.Second, "the acked records on every node", func() bool {
		for _, b := range cl.brokers {
			topic, err := b.Topic("alarms")
			if err != nil {
				return false
			}
			if n, err := topic.LogSize(0); err != nil || n != acked {
				return false
			}
		}
		return true
	})

	cl.servers[2].Close()
	cl.restartEmpty(t, 0)
	cl.restartEmpty(t, 1)
	leader := leaderAmong(t, cl, 0, 1)

	c2, err := netbroker.Dial(cl.addrs, "alarms", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.EnsureTopic(1); err != nil {
		t.Fatal(err)
	}
	p2, err := c2.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	_, off, err := p2.SendAt([]byte("dev-1"), []byte("after"), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if off != 0 {
		t.Fatalf("first record after the restart acked at offset %d, want 0 (the %d acked records lost)", off, acked)
	}
	topic, err := cl.brokers[leader].Topic("alarms")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := topic.FetchLogInto(0, 0, acked+1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Value) != "after" {
		t.Fatalf("leader log holds %d records, want only the one sent after the restart", len(recs))
	}
}
