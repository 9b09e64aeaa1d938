package netbroker_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/netbroker"
)

// heartbeat is the ReplInterval of the event-driven tests: far above
// every latency they assert, so a path that still waited for the
// interval — however short a default made it look — fails them.
const heartbeat = 200 * time.Millisecond

// startParkedCluster boots an RF 3 set whose followers' pulls sit parked
// at the leader for up to heartbeat, with one topic of one partition, a
// producer and a joined consumer. A first send is acked before it
// returns, so both followers know the topic and have a pull parked.
func startParkedCluster(t *testing.T) (*testCluster, *netbroker.Producer, broker.GroupConsumer) {
	t.Helper()
	cl := startClusterWith(t, 3, func(o *netbroker.Options) {
		o.ReplInterval = heartbeat
		o.ElectionTimeout = time.Second
	})
	c, err := netbroker.Dial(cl.addrs, "alarms", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.EnsureTopic(1); err != nil {
		t.Fatal(err)
	}
	p, err := c.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	cons, _, err := c.NewGroupConsumer("verify", "m1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cons.Close)
	if _, _, err := p.SendAt([]byte("k"), []byte("warm-up"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	recs, err := pollCopy(cons, 1, 5*time.Second)
	if err != nil || len(recs) != 1 {
		t.Fatalf("warm-up poll = %d records, %v", len(recs), err)
	}
	return cl, p, cons
}

// parkPoll starts a poll for one record that finds nothing and waits at
// the leader, returning the channel its result arrives on.
func parkPoll(cons broker.GroupConsumer, timeout time.Duration) <-chan []broker.Record {
	done := make(chan []broker.Record, 1)
	go func() {
		recs, _ := pollCopy(cons, 1, timeout)
		done <- recs
	}()
	// Nothing observable says the fetch has reached the leader; if it
	// has not, the assertions below still hold, only less pointedly.
	time.Sleep(50 * time.Millisecond)
	return done
}

// TestAppendAckedWithinOnePull: an append wakes the followers' parked
// pulls, so a quorum ack costs a pull round-trip, not ReplInterval.
func TestAppendAckedWithinOnePull(t *testing.T) {
	cl, p, _ := startParkedCluster(t)
	const n = 20
	took := make([]time.Duration, n)
	for i := range took {
		start := time.Now()
		if _, _, err := p.SendAt([]byte("k"), []byte(fmt.Sprintf("v-%d", i)), time.Time{}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		took[i] = time.Since(start)
	}
	slices.Sort(took)
	if median := took[n/2]; median >= 50*time.Millisecond {
		t.Fatalf("median ack %s with ReplInterval %s: appends wait for the interval (all: %v)", median, heartbeat, took)
	}
	for node, b := range cl.brokers {
		b := b
		waitFor(t, 5*time.Second, fmt.Sprintf("node %d log converges", node), func() bool {
			topic, err := b.Topic("alarms")
			if err != nil {
				return false
			}
			size, err := topic.LogSize(0)
			return err == nil && size == n+1
		})
	}
}

// TestParkedPollWakesOnQuorumCommit: a fetch waiting at the leader
// returns when the record becomes visible, not when a sleep ends.
func TestParkedPollWakesOnQuorumCommit(t *testing.T) {
	_, p, cons := startParkedCluster(t)
	polled := parkPoll(cons, 2*time.Second)
	if _, _, err := p.SendAt([]byte("k"), []byte("wake"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	acked := time.Now()
	select {
	case recs := <-polled:
		if len(recs) != 1 || string(recs[0].Value) != "wake" {
			t.Fatalf("parked poll returned %v", recs)
		}
		if late := time.Since(acked); late >= 100*time.Millisecond {
			t.Fatalf("parked poll returned %s after the ack", late)
		}
	case <-time.After(time.Second):
		t.Fatal("parked poll did not wake on the quorum commit")
	}
}

// TestCommitNotQueuedBehindParkedPoll: commits ride their own
// connection, so a fetch waiting at the leader does not delay them.
func TestCommitNotQueuedBehindParkedPoll(t *testing.T) {
	_, _, cons := startParkedCluster(t)
	polled := parkPoll(cons, time.Second)
	start := time.Now()
	if err := cons.CommitOffsets(map[int]int64{0: 1}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= 100*time.Millisecond {
		t.Fatalf("commit took %s beside a parked poll", took)
	}
	if recs := <-polled; len(recs) != 0 {
		t.Fatalf("parked poll returned %v on an idle topic", recs)
	}
}

// TestCloseEndsParkedRequests closes a leader holding both followers'
// pulls and a consumer fetch: Close must not wait out any park, the
// fetch must come back, and no goroutine may outlive the servers.
func TestCloseEndsParkedRequests(t *testing.T) {
	before := runtime.NumGoroutine()
	cl, p, cons := startParkedCluster(t)
	polled := parkPoll(cons, 30*time.Second)
	start := time.Now()
	cl.servers[cl.leaderIndex(-1)].Close()
	if took := time.Since(start); took >= heartbeat {
		t.Fatalf("Close took %s with requests parked", took)
	}
	select {
	case <-polled:
	case <-time.After(5 * time.Second):
		t.Fatal("poll still parked after the server closed")
	}
	cons.Close()
	p.Close()
	for _, s := range cl.servers {
		s.Close()
	}
	waitFor(t, 5*time.Second, "server and client goroutines exit", func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// TestStepDownEndsParkedPoll takes a leader's followers away while a
// consumer fetch is parked there: once it steps down the fetch must
// come back long before its own timeout, so the consumer can re-aim.
func TestStepDownEndsParkedPoll(t *testing.T) {
	cl, _, cons := startParkedCluster(t)
	lead := cl.leaderIndex(-1)
	polled := parkPoll(cons, 30*time.Second)
	for i, s := range cl.servers {
		if i != lead {
			s.Close()
		}
	}
	waitFor(t, 5*time.Second, "leader without followers steps down", func() bool {
		return !cl.servers[lead].IsLeader()
	})
	select {
	case <-polled:
	case <-time.After(5 * time.Second):
		t.Fatal("poll still parked after the leader stepped down")
	}
}

// TestSubMillisecondPollWaits: a poll timeout below the wire's
// millisecond still waits at the server; truncated to zero it would
// turn the caller's poll loop into back-to-back RPCs.
func TestSubMillisecondPollWaits(t *testing.T) {
	srv, _ := startStandalone(t)
	c, err := netbroker.Dial([]string{srv.Addr()}, "alarms", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.EnsureTopic(1); err != nil {
		t.Fatal(err)
	}
	cons, _, err := c.NewGroupConsumer("verify", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	for i := 0; i < 5; i++ {
		start := time.Now()
		recs, err := pollCopy(cons, 1, 500*time.Microsecond)
		if err != nil || len(recs) != 0 {
			t.Fatalf("empty poll = %v, %v", recs, err)
		}
		if took := time.Since(start); took < 500*time.Microsecond {
			t.Fatalf("empty poll (500µs) returned after %s", took)
		}
	}
}

// TestParkedPollWithoutPartitionsEndsOnClose: a member of an
// over-subscribed group owns nothing and its poll only paces the
// caller; Close must end that wait, not sleep through it.
func TestParkedPollWithoutPartitionsEndsOnClose(t *testing.T) {
	srv, _ := startStandalone(t)
	c, err := netbroker.Dial([]string{srv.Addr()}, "alarms", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.EnsureTopic(1); err != nil {
		t.Fatal(err)
	}
	owner, _, err := c.NewGroupConsumer("verify", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	idle, _, err := c.NewGroupConsumer("verify", "m2")
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if parts := idle.Assignment(); len(parts) != 0 {
		t.Fatalf("second member of a one-partition topic owns %v", parts)
	}
	polled := parkPoll(idle, 30*time.Second)
	start := time.Now()
	idle.Close()
	select {
	case <-polled:
		if late := time.Since(start); late >= 100*time.Millisecond {
			t.Fatalf("poll without partitions ended %s after Close", late)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("poll without partitions slept through Close")
	}
}
