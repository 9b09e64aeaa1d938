package netbroker_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/metrics"
	"alarmverify/internal/netbroker"
)

// fastClientOpts keeps test retries snappy.
func fastClientOpts() netbroker.ClientOptions {
	return netbroker.ClientOptions{
		DialTimeout:  250 * time.Millisecond,
		RetryTimeout: 10 * time.Second,
	}
}

// testSessionTimeout is the test servers' session timeout: its
// twentieth, the pace their members heartbeat at, is 25 ms, so a
// member hears of a rebalance or a failover within a few tens of
// milliseconds.
const testSessionTimeout = 500 * time.Millisecond

// pollCopy polls under a lease, clones the records' bytes and releases
// the lease: the copying poll tests that keep records read through.
func pollCopy(cons broker.GroupConsumer, max int, timeout time.Duration) ([]broker.Record, error) {
	recs, lease, err := cons.PollLeased(max, timeout, nil)
	for i := range recs {
		recs[i].Key, recs[i].Value = bytes.Clone(recs[i].Key), bytes.Clone(recs[i].Value)
	}
	lease.Release()
	return recs, err
}

// commitPositions commits everything cons has polled so far.
func commitPositions(cons broker.GroupConsumer) error {
	return cons.CommitOffsets(cons.PositionsInto(nil))
}

func waitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// startStandalone boots a single-node (RF=1) server on an ephemeral
// port.
func startStandalone(t *testing.T) (*netbroker.Server, *broker.Broker) {
	t.Helper()
	b := broker.New()
	srv, err := netbroker.NewServer(b, "127.0.0.1:0", netbroker.Options{
		SessionTimeout: testSessionTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	t.Cleanup(func() { b.Close() })
	return srv, b
}

// TestRejoinResumesAtCommittedOffsets: a join's one answer seeks the
// member to the group's committed offsets, so the same member's refresh
// (a join under its own id) and a fresh member after it both start
// where the group committed — not where the member had polled to, and
// not at zero.
func TestRejoinResumesAtCommittedOffsets(t *testing.T) {
	srv, _ := startStandalone(t)
	c, err := netbroker.Dial([]string{srv.Addr()}, "alarms", fastClientOpts())
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
	const n = 40
	for i := 0; i < n; i++ {
		if _, _, err := p.SendAt([]byte(fmt.Sprintf("dev-%d", i)), []byte("alarm"), time.Unix(0, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	first, _, err := c.NewGroupConsumer("verify", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	for got := 0; got < n; {
		recs, err := pollCopy(first, n, time.Second)
		if err != nil || len(recs) == 0 {
			t.Fatalf("polled %d of %d records, then %v", got, n, err)
		}
		got += len(recs)
	}
	committed := first.PositionsInto(nil)
	for p := range committed {
		committed[p] /= 2
	}
	if err := first.CommitOffsets(committed); err != nil {
		t.Fatal(err)
	}
	if err := first.RefreshAssignment(); err != nil {
		t.Fatal(err)
	}
	if got := first.PositionsInto(nil); !reflect.DeepEqual(got, committed) {
		t.Fatalf("refreshed member at %v, the group committed %v", got, committed)
	}
	first.Close()
	second, _, err := c.NewGroupConsumer("verify", "m2")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if got := second.PositionsInto(nil); !reflect.DeepEqual(got, committed) {
		t.Fatalf("successor at %v, the group committed %v", got, committed)
	}
}

func TestSingleNodeProduceConsume(t *testing.T) {
	srv, _ := startStandalone(t)
	c, err := netbroker.Dial([]string{srv.Addr()}, "alarms", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	parts, err := c.EnsureTopic(4)
	if err != nil || parts != 4 {
		t.Fatalf("EnsureTopic = %d, %v", parts, err)
	}
	// Idempotent re-ensure, and partition-count conflicts refused.
	if parts, err = c.EnsureTopic(4); err != nil || parts != 4 {
		t.Fatalf("re-EnsureTopic = %d, %v", parts, err)
	}
	if _, err = c.EnsureTopic(8); err == nil {
		t.Fatal("EnsureTopic with conflicting partition count succeeded")
	}

	p, err := c.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 200
	type sent struct {
		part int
		off  int64
	}
	acked := make(map[string]sent, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("dev-%d", i%16)
		val := fmt.Sprintf("alarm-%d", i)
		part, off, err := p.SendAt([]byte(key), []byte(val), time.Unix(0, int64(i+1)))
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		acked[val] = sent{part, off}
	}

	cons, nparts, err := c.NewGroupConsumer("verify", "c1")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	if nparts != 4 {
		t.Fatalf("consumer sees %d partitions, want 4", nparts)
	}
	if got := len(cons.Assignment()); got != 4 {
		t.Fatalf("sole member assigned %d partitions, want 4", got)
	}

	got := make(map[string]sent, n)
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < n && time.Now().Before(deadline) {
		recs, err := pollCopy(cons, 64, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			v := string(r.Value)
			if _, dup := got[v]; dup {
				t.Fatalf("record %q delivered twice under a stable leader", v)
			}
			got[v] = sent{r.Partition, r.Offset}
		}
	}
	if len(got) != n {
		t.Fatalf("consumed %d records, want %d", len(got), n)
	}
	for v, want := range acked {
		if got[v] != want {
			t.Fatalf("record %q at %+v, acked at %+v", v, got[v], want)
		}
	}

	// Key-partition affinity survived the wire: every record of one key
	// landed on the key's partition.
	for v, s := range got {
		var i int
		fmt.Sscanf(v, "alarm-%d", &i)
		key := fmt.Sprintf("dev-%d", i%16)
		if want := broker.PartitionForKey([]byte(key), 4); s.part != want {
			t.Fatalf("key %q on partition %d, want %d", key, s.part, want)
		}
	}

	if lag, err := cons.Lag(); err != nil || lag != 0 {
		t.Fatalf("post-consume lag = %d, %v", lag, err)
	}
	if err := commitPositions(cons); err != nil {
		t.Fatal(err)
	}
	offs, err := c.GroupCommitted("verify")
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, off := range offs {
		sum += off
	}
	if sum != n {
		t.Fatalf("GroupCommitted sums to %d, want %d", sum, n)
	}
}

// TestEnsureTopicConflictFailsFast pins error classification on the
// client: a partition-count conflict is a semantic refusal that cannot
// resolve by retrying, so it must surface immediately instead of being
// hammered against the same leader for the full RetryTimeout.
func TestEnsureTopicConflictFailsFast(t *testing.T) {
	srv, _ := startStandalone(t)
	c, err := netbroker.Dial([]string{srv.Addr()}, "alarms", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.EnsureTopic(4); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.EnsureTopic(8); err == nil {
		t.Fatal("conflicting EnsureTopic succeeded")
	}
	// fastClientOpts retries for 10s; well under that proves no retry.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("conflicting EnsureTopic took %v; semantic errors must fail fast, not burn the retry window", elapsed)
	}
}

func TestConsumerRebalanceAndCommitFencing(t *testing.T) {
	srv, _ := startStandalone(t)
	c, err := netbroker.Dial([]string{srv.Addr()}, "alarms", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.EnsureTopic(4); err != nil {
		t.Fatal(err)
	}

	c1, _, err := c.NewGroupConsumer("g", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if got := len(c1.Assignment()); got != 4 {
		t.Fatalf("sole member assigned %d partitions, want 4", got)
	}

	c2, _, err := c.NewGroupConsumer("g", "m2")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// m1 commits under its pre-rebalance generation: the coordinator
	// must fence it.
	waitFor(t, 5*time.Second, "stale commit fenced", func() bool {
		err := c1.CommitOffsets(map[int]int64{0: 0})
		return errors.Is(err, broker.ErrRebalanceStale)
	})

	// m1 hears about the rebalance via its heartbeat and, refreshed,
	// the two members split the partitions disjointly.
	select {
	case <-c1.Rebalances():
	case <-time.After(5 * time.Second):
		t.Fatal("m1 never observed the rebalance")
	}
	if err := c1.RefreshAssignment(); err != nil {
		t.Fatal(err)
	}
	a1, a2 := c1.Assignment(), c2.Assignment()
	if len(a1) != 2 || len(a2) != 2 {
		t.Fatalf("assignments %v / %v, want 2+2", a1, a2)
	}
	seen := map[int]int{}
	for _, p := range append(a1, a2...) {
		seen[p]++
	}
	if len(seen) != 4 {
		t.Fatalf("assignments %v / %v do not cover 4 partitions", a1, a2)
	}
	for p, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("partition %d owned %d times", p, cnt)
		}
	}

	// A fresh commit under the current generation goes through.
	if err := commitPositions(c1); err != nil {
		t.Fatal(err)
	}
}

func TestConsumerCloseReleasesPartitions(t *testing.T) {
	srv, _ := startStandalone(t)
	c, err := netbroker.Dial([]string{srv.Addr()}, "alarms", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.EnsureTopic(2); err != nil {
		t.Fatal(err)
	}

	leaver, _, err := c.NewGroupConsumer("g", "m-leaver")
	if err != nil {
		t.Fatal(err)
	}
	survivor, _, err := c.NewGroupConsumer("g", "m-live")
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()

	// A polite Close leaves the group; the survivor takes over both
	// partitions. (Crash-without-Leave expiry is covered by the
	// janitor test in the internal package.)
	leaver.Close()
	waitFor(t, 10*time.Second, "survivor owns all partitions", func() bool {
		select {
		case <-survivor.Rebalances():
			if err := survivor.RefreshAssignment(); err != nil {
				return false
			}
		default:
		}
		return len(survivor.Assignment()) == 2
	})
}

func TestPollLeasedAccounting(t *testing.T) {
	srv, _ := startStandalone(t)
	c, err := netbroker.Dial([]string{srv.Addr()}, "alarms", fastClientOpts())
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
	if _, _, err := p.SendAt([]byte("k"), []byte("v"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	cons, _, err := c.NewGroupConsumer("g", "m")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()

	recs, lease, err := cons.PollLeased(16, 2*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Value) != "v" {
		t.Fatalf("leased poll got %d records", len(recs))
	}
	if got := cons.LeaseStats().Active; got != 1 {
		t.Fatalf("active leases = %d, want 1", got)
	}
	lease.Release()
	if got := cons.LeaseStats().Active; got != 0 {
		t.Fatalf("active leases after release = %d, want 0", got)
	}
}

// --- replica-set helpers shared with repl_test.go ---

// freeAddrs reserves n distinct loopback addresses by briefly
// listening on them. There is a small rebind race; tests tolerate it
// by being rerun, the CI runner has never hit it in practice.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

type testCluster struct {
	addrs   []string
	brokers []*broker.Broker
	servers []*netbroker.Server
	repl    []*metrics.Replication
}

// clusterOpts is the test-fast replica-set configuration for node i;
// shared by startCluster and node restarts so a restarted node runs
// exactly what it ran before.
func clusterOpts(i int, addrs []string, rm *metrics.Replication) netbroker.Options {
	return netbroker.Options{
		NodeID:          i,
		Peers:           addrs,
		ReplInterval:    2 * time.Millisecond,
		ElectionTimeout: 150 * time.Millisecond,
		AckTimeout:      3 * time.Second,
		SessionTimeout:  testSessionTimeout,
		Repl:            rm,
	}
}

// startCluster boots an n-node replica set with test-fast timeouts.
func startCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	return startClusterWith(t, n, func(*netbroker.Options) {})
}

// startClusterWith is startCluster with each node's options adjusted
// by tune before it boots.
func startClusterWith(t *testing.T, n int, tune func(*netbroker.Options)) *testCluster {
	t.Helper()
	cl := &testCluster{addrs: freeAddrs(t, n)}
	for i := 0; i < n; i++ {
		b := broker.New()
		rm := metrics.NewReplication()
		opts := clusterOpts(i, cl.addrs, rm)
		tune(&opts)
		srv, err := netbroker.NewServer(b, cl.addrs[i], opts)
		if err != nil {
			t.Fatal(err)
		}
		cl.brokers = append(cl.brokers, b)
		cl.servers = append(cl.servers, srv)
		cl.repl = append(cl.repl, rm)
	}
	t.Cleanup(func() {
		for _, s := range cl.servers {
			s.Close()
		}
		for _, b := range cl.brokers {
			b.Close()
		}
	})
	return cl
}

// restart boots a fresh server for node i on its original address,
// wrapping the node's still-live broker: a process restart, where the
// log survives but all in-memory replication state (epoch, role,
// acks) is forgotten.
func (cl *testCluster) restart(t *testing.T, i int) {
	t.Helper()
	rm := metrics.NewReplication()
	var srv *netbroker.Server
	waitFor(t, 5*time.Second, fmt.Sprintf("node %d rebinds %s", i, cl.addrs[i]), func() bool {
		s, err := netbroker.NewServer(cl.brokers[i], cl.addrs[i], clusterOpts(i, cl.addrs, rm))
		if err != nil {
			return false
		}
		srv = s
		return true
	})
	cl.servers[i] = srv
	cl.repl[i] = rm
	t.Cleanup(srv.Close)
}

// restartEmpty stops node i and boots it again on a fresh broker: a
// process restart, which loses the node's log along with the rest of
// what it held in memory.
func (cl *testCluster) restartEmpty(t *testing.T, i int) {
	t.Helper()
	cl.servers[i].Close()
	cl.brokers[i].Close()
	cl.brokers[i] = broker.New()
	cl.restart(t, i)
}

// leaderIndex returns which live node believes it leads, or -1.
func (cl *testCluster) leaderIndex(skip int) int {
	for i, s := range cl.servers {
		if i == skip {
			continue
		}
		if s.IsLeader() {
			return i
		}
	}
	return -1
}
