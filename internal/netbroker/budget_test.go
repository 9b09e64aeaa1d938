//go:build !race

package netbroker

import (
	"testing"
	"time"

	"alarmverify/internal/broker"
)

// The wire path's allocation budgets. They hold because the per-alarm
// messages are encoded into and decoded out of buffers their connection
// keeps, and would not survive a return to encoding/json (a send was 29
// allocations, an idle pull about as many on each side). Each run
// counts both ends of the round trip: client and server share the
// process. Since readFrame reads its header into the connection's
// scratch (it cost each end one allocation a frame), an idle round trip
// allocates nothing. The race runtime inflates the counts, hence the tag.

// budgetClient boots a standalone node with an eight-partition topic
// and a client whose heartbeats stay out of the measurements.
func budgetClient(t *testing.T) (*Server, *Client) {
	t.Helper()
	b := broker.New()
	srv, err := NewServer(b, "127.0.0.1:0", Options{SessionTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); b.Close() })
	c, err := Dial([]string{srv.Addr()}, "alarms", ClientOptions{HeartbeatInterval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.EnsureTopic(8); err != nil {
		t.Fatal(err)
	}
	return srv, c
}

func TestSendAllocBudget(t *testing.T) {
	_, c := budgetClient(t)
	p, err := c.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	key, value, ts := []byte("00:11:22:33:44:55"), make([]byte, 300), time.Unix(1_700_000_000, 0)
	send := func() {
		if _, _, err := p.SendAt(key, value, ts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		send() // fill the partition's first arena block and grow the buffers
	}
	allocs := testing.AllocsPerRun(500, send)
	t.Logf("RF 1 SendAt round trip: %.2f allocations", allocs)
	if allocs > 7 {
		t.Fatalf("RF 1 SendAt round trip: %.2f allocations, budget 7", allocs)
	}
}

func TestIdlePullAllocBudget(t *testing.T) {
	pp := newPullPair(t, 2*time.Millisecond)
	pp.topic(t, "alarms", 8)
	pp.produce(t, "alarms", 3, 4, 300)
	if resp := pp.leader.handleJoin(joinReq{Group: "verify", Topic: "alarms", Member: "m1"}); resp.Err != "" {
		t.Fatal(resp.Err)
	} else if err := pp.lb.GroupCommit("verify", resp.Gen, map[int]int64{3: 4}); err != nil {
		t.Fatal(err)
	}
	pull := func() {
		if served, err := pp.follower.pullFrom(0); err != nil || !served {
			t.Fatalf("pull: served %v, %v", served, err)
		}
	}
	pull() // catch up, dial, grow the buffers
	pull()
	allocs := testing.AllocsPerRun(50, pull)
	t.Logf("idle held pull round: %.2f allocations", allocs)
	if allocs > 0 {
		t.Fatalf("idle held pull round: %.2f allocations, budget 0", allocs)
	}
}

func TestEmptyPollLeasedAllocBudget(t *testing.T) {
	_, c := budgetClient(t)
	cons, _, err := c.NewGroupConsumer("verify", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	dst := make([]broker.Record, 0, 16)
	poll := func() {
		out, lease, err := cons.PollLeased(16, time.Millisecond, dst)
		if err != nil || len(out) != 0 {
			t.Fatalf("empty poll = %d records, %v", len(out), err)
		}
		lease.Release()
	}
	poll()
	allocs := testing.AllocsPerRun(50, poll)
	t.Logf("empty PollLeased: %.2f allocations", allocs)
	if allocs > 0 {
		t.Fatalf("empty PollLeased: %.2f allocations, budget 0", allocs)
	}
}

// TestPollLeasedAllocBudget: a poll that fetches reads the response
// into a buffer its lease owns and hands out views of it; lease and
// buffer come off the consumer's free list, so fetch and Release
// allocate nothing on either end (a slab and a lease per poll before).
func TestPollLeasedAllocBudget(t *testing.T) {
	_, c := budgetClient(t)
	p, err := c.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 300; i++ {
		if _, _, err := p.SendAt([]byte{byte(i)}, make([]byte, 300), time.Unix(1_700_000_000, 0)); err != nil {
			t.Fatal(err)
		}
	}
	cons, _, err := c.NewGroupConsumer("verify", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	dst := make([]broker.Record, 0, 16)
	poll := func() {
		out, lease, err := cons.PollLeased(1, time.Second, dst)
		if err != nil || len(out) != 1 || len(out[0].Value) != 300 {
			t.Fatalf("leased poll = %d records, %v; want 1 of 300 bytes", len(out), err)
		}
		lease.Release()
	}
	poll() // the lease and its buffer
	poll() // the buffer the first poll swapped it for
	allocs := testing.AllocsPerRun(200, poll)
	t.Logf("PollLeased of one record + Release: %.2f allocations", allocs)
	if allocs > 0 {
		t.Fatalf("PollLeased of one record + Release: %.2f allocations, budget 0", allocs)
	}
	if st := cons.LeaseStats(); st.Active != 0 || st.Free != 1 || st.Bytes == 0 {
		t.Fatalf("lease stats after the run: %+v, want one lease, free, with a buffer", st)
	}
}

func TestCommitOffsetsAllocBudget(t *testing.T) {
	_, c := budgetClient(t)
	cons, _, err := c.NewGroupConsumer("verify", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	offsets := make(map[int]int64, 8)
	commit := func() {
		for p := 0; p < 8; p++ {
			offsets[p]++
		}
		if err := cons.CommitOffsets(offsets); err != nil {
			t.Fatal(err)
		}
	}
	commit()
	allocs := testing.AllocsPerRun(100, commit)
	t.Logf("CommitOffsets of 8 partitions: %.2f allocations", allocs)
	if allocs > 2 {
		t.Fatalf("CommitOffsets of 8 partitions: %.2f allocations, budget 2", allocs)
	}
}
