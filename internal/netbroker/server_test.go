package netbroker

import (
	"errors"
	"testing"
	"time"

	"alarmverify/internal/broker"
)

// TestJanitorExpiresSilentSessions joins a member over a raw protocol
// connection and then kills the socket without Leave — a crashed
// alarmd. The janitor must expire the session so the survivor inherits
// its partitions.
func TestJanitorExpiresSilentSessions(t *testing.T) {
	b := broker.New()
	defer b.Close()
	srv, err := NewServer(b, "127.0.0.1:0", Options{SessionTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial([]string{srv.Addr()}, "alarms", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.EnsureTopic(2); err != nil {
		t.Fatal(err)
	}

	// Join m-dead over a bare connection that will never heartbeat.
	rc, err := dialRPC(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var jresp joinResp
	if err := rc.call(opJoin, joinReq{Group: "g", Topic: "alarms", Member: "m-dead"}, &jresp); err != nil {
		t.Fatal(err)
	}
	survivor, _, err := c.NewGroupConsumer("g", "m-live")
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()
	rc.close() // crash: no Leave, no heartbeat

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-survivor.Rebalances():
			if err := survivor.RefreshAssignment(); err != nil {
				t.Fatal(err)
			}
		default:
		}
		if len(survivor.Assignment()) == 2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("survivor still owns %v after janitor window", survivor.Assignment())
}

// TestRejoinedMemberHearsLaterRebalance: a member whose connections
// drop rejoins its live leader under its own id, where it is still a
// member. It must stay one member that later joins rebalance: when a
// second member joins, the first hears of it within a few heartbeats,
// refreshes onto exactly the partitions the newcomer does not own, and
// commits under the new generation.
func TestRejoinedMemberHearsLaterRebalance(t *testing.T) {
	b := broker.New()
	defer b.Close()
	const session = 500 * time.Millisecond
	const hb = session / 20 // the pace a join hands the member
	srv, err := NewServer(b, "127.0.0.1:0", Options{SessionTimeout: session})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial([]string{srv.Addr()}, "alarms", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.EnsureTopic(4); err != nil {
		t.Fatal(err)
	}
	first, _, err := c.NewGroupConsumer("g", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	// The next heartbeat fails on the dropped connection and the member
	// rejoins; the rejoin is a rebalance signal of its own.
	dropConns(srv)
	select {
	case <-first.Rebalances():
	case <-time.After(5 * time.Second):
		t.Fatal("m1 never rejoined after its connections dropped")
	}
	if err := first.RefreshAssignment(); err != nil {
		t.Fatal(err)
	}
	if got := first.Assignment(); len(got) != 4 {
		t.Fatalf("rejoined sole member holds %v, want all 4 partitions", got)
	}

	second, _, err := c.NewGroupConsumer("g", "m2")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	select {
	case <-first.Rebalances():
	case <-time.After(20 * hb):
		t.Fatalf("m1 not told of m2's join within 20 heartbeats; it still holds %v beside m2's %v",
			first.Assignment(), second.Assignment())
	}
	if err := first.RefreshAssignment(); err != nil {
		t.Fatal(err)
	}
	owned := map[int]bool{}
	for _, p := range second.Assignment() {
		owned[p] = true
	}
	got := first.Assignment()
	for _, p := range got {
		if owned[p] {
			t.Fatalf("m1 holds %v, m2 %v: partition %d owned twice", got, second.Assignment(), p)
		}
	}
	if len(got)+len(owned) != 4 {
		t.Fatalf("m1 holds %v, m2 %v: together not all 4 partitions", got, second.Assignment())
	}
	if err := first.CommitOffsets(first.PositionsInto(nil)); err != nil {
		t.Fatalf("m1's commit after the refresh: %v", err)
	}
}

// TestHeartbeatPaceHoldsShortSession: a member heartbeats at the pace
// its join hands out, a twentieth of the server's session, so a live
// member built from default client options keeps even a 100 ms
// session: over 1.5 s it hears no rebalance and the group's generation
// stays where its join left it. A client that paced itself, slower
// than the session, would be expired and re-added over and over.
func TestHeartbeatPaceHoldsShortSession(t *testing.T) {
	b := broker.New()
	defer b.Close()
	srv, err := NewServer(b, "127.0.0.1:0", Options{SessionTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial([]string{srv.Addr()}, "alarms", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.EnsureTopic(4); err != nil {
		t.Fatal(err)
	}
	cons, _, err := c.NewGroupConsumer("g", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	joined, err := b.GroupGeneration("g")
	if err != nil {
		t.Fatal(err)
	}
	signals := 0
	for end := time.After(1500 * time.Millisecond); ; {
		select {
		case <-cons.Rebalances():
			signals++
			if err := cons.RefreshAssignment(); err != nil {
				t.Fatal(err)
			}
			continue
		case <-end:
		}
		break
	}
	gen, err := b.GroupGeneration("g")
	if err != nil {
		t.Fatal(err)
	}
	if signals != 0 || gen != joined {
		t.Fatalf("a live member heard %d rebalances in 1.5 s and the generation moved %d -> %d: its heartbeats do not keep a 100 ms session",
			signals, joined, gen)
	}
}

// TestFollowerRefusesGroupCommitted: a follower's group offsets are the
// gossip its last pull brought, not the coordinator's, so sent the
// group audit directly it refuses with ErrNotLeader — the redirect on
// which Client.GroupCommitted finds the leader and asks again.
func TestFollowerRefusesGroupCommitted(t *testing.T) {
	pp := newPullPair(t, 2*time.Millisecond)
	pp.topic(t, "alarms", 2)
	pp.produce(t, "alarms", 0, 2, 8)
	if resp := pp.leader.handleJoin(joinReq{Group: "verify", Topic: "alarms", Member: "m1"}); resp.Err != "" {
		t.Fatal(resp.Err)
	} else if err := pp.lb.GroupCommit("verify", resp.Gen, map[int]int64{0: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := pp.follower.pullFrom(0); err != nil {
		t.Fatal(err)
	}
	if got, _ := pp.fb.GroupCommitted("verify"); got[0] != 1 {
		t.Fatalf("follower's gossiped offsets %v, want partition 0 at 1", got)
	}
	rc, err := dialRPC(pp.follower.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.close()
	var resp groupCommittedResp
	if err := rc.call(opGroupCommitted, groupCommittedReq{Group: "verify"}, &resp); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("follower answered the group audit with %v, %v; want ErrNotLeader", resp.Offsets, err)
	}
}

// TestJoinRefusesPacelessAnswer: a session timeout under 20 ns leaves a
// member no heartbeat pace; its join then fails with an error instead
// of panicking the heartbeat ticker.
func TestJoinRefusesPacelessAnswer(t *testing.T) {
	b := broker.New()
	defer b.Close()
	srv, err := NewServer(b, "127.0.0.1:0", Options{SessionTimeout: 19})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial([]string{srv.Addr()}, "alarms", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.EnsureTopic(1); err != nil {
		t.Fatal(err)
	}
	if cons, _, err := c.NewGroupConsumer("g", "m1"); err == nil {
		cons.Close()
		t.Fatal("a join answered with no heartbeat pace succeeded")
	}
}
