package netbroker

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"alarmverify/internal/broker"
)

// standalone boots a single-node server on a fresh broker with one
// topic of parts partitions.
func standalone(t *testing.T, parts int) (*Server, *broker.Broker) {
	t.Helper()
	b := broker.New()
	s, err := NewServer(b, "127.0.0.1:0", Options{SessionTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(); b.Close() })
	if resp := s.handleEnsureTopic(ensureTopicReq{Name: "alarms", Partitions: parts}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	return s, b
}

// appendFilled appends n records of size-byte values to partition 0
// through the server's append handler, the value of offset o filled
// with byte(o).
func appendFilled(t *testing.T, s *Server, n, size int) {
	t.Helper()
	tp, err := s.b.Topic("alarms")
	if err != nil {
		t.Fatal(err)
	}
	sc := s.newConnScratch()
	for i := 0; i < n; i++ {
		end, _ := tp.LogSize(0)
		req := appendReq{Topic: "alarms", Partition: 0, ProducerID: -1, Recs: []broker.Record{{Value: bytes.Repeat([]byte{byte(end)}, size)}}}
		var resp appendResp
		if s.handleAppend(&req, &resp, sc.timer); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
}

// commitAt joins a member of group "verify" and commits partition 0 at
// off on the server's broker.
func commitAt(t *testing.T, s *Server, off int64) {
	t.Helper()
	resp := s.handleJoin(joinReq{Group: "verify", Topic: "alarms", Member: "m1"})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if err := s.b.GroupCommit("verify", resp.Gen, map[int]int64{0: off}); err != nil {
		t.Fatal(err)
	}
}

// TestWireFetchBelowLogStart: once the group's commit has released a
// prefix, a consumer fetch and a log fetch below the log start fail
// over the wire with broker.ErrBelowLogStart, and one at the start
// reads on.
func TestWireFetchBelowLogStart(t *testing.T) {
	s, _ := standalone(t, 1)
	appendFilled(t, s, 10, 8)
	commitAt(t, s, 6)
	rc, err := dialRPC(s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.close()
	var resp fetchResp
	below := fetchReq{Max: 10, Topic: "alarms", Parts: []partOffset{{P: 0, Off: 2}}}
	if err := rc.callWire(opFetch, &below, &resp, nil); !errors.Is(err, broker.ErrBelowLogStart) {
		t.Fatalf("fetch below the log start: %d records, %v; want ErrBelowLogStart", len(resp.Recs), err)
	}
	logBelow := fetchLogReq{Topic: "alarms", Partition: 0, Offset: 5, Max: 10}
	if err := rc.callWire(opFetchLog, &logBelow, &resp, nil); !errors.Is(err, broker.ErrBelowLogStart) {
		t.Fatalf("log fetch below the log start: %v; want ErrBelowLogStart", err)
	}
	at := fetchReq{Max: 10, Topic: "alarms", Parts: []partOffset{{P: 0, Off: 6}}}
	if err := rc.callWire(opFetch, &at, &resp, nil); err != nil || len(resp.Recs) != 4 || resp.Recs[0].Offset != 6 {
		t.Fatalf("fetch at the log start: %d records, %v", len(resp.Recs), err)
	}
}

// TestWireFetchPinsUntilEncoded: a consumer fetch's records are views
// of the log's arena until the response is encoded, and the
// connection's pins hold them there: a commit past them and a burst of
// appends between the fetch and the encode — more blocks than a
// partition keeps spare — leave every encoded value its own record's.
func TestWireFetchPinsUntilEncoded(t *testing.T) {
	s, _ := standalone(t, 1)
	const size = 1000
	appendFilled(t, s, 300, size)
	sc := s.newConnScratch()
	req := fetchReq{Max: 300, Topic: "alarms", Parts: []partOffset{{P: 0, Off: 0}}}
	var resp fetchResp
	s.handleFetch(&req, &resp, sc)
	if resp.Err != "" || len(resp.Recs) != 300 {
		t.Fatalf("fetch: %d records, %q", len(resp.Recs), resp.Err)
	}
	commitAt(t, s, 300)
	for i := 0; i < 20; i++ {
		appendFilled(t, s, 200, size)
		commitAt(t, s, int64(300+200*(i+1)))
	}
	body := resp.appendTo(nil)
	sc.pins.Release()
	var got fetchResp
	if err := got.decode(body); err != nil {
		t.Fatal(err)
	}
	for _, r := range got.Recs {
		if len(r.Value) != size || bytes.Count(r.Value, []byte{byte(r.Offset)}) != size {
			t.Fatalf("record %d encoded with %d..., not its own bytes", r.Offset, r.Value[0])
		}
	}
}

// TestFollowerRefusesHighWatermarks: the high watermarks, like the
// group audit, come from the leader only. A follower's stop moving
// when it is cut off or deposed, so it redirects with ErrNotLeader,
// and Consumer.Lag on a connection aimed at it re-aims instead of
// reading them.
func TestFollowerRefusesHighWatermarks(t *testing.T) {
	pp := newPullPair(t, 2*time.Millisecond)
	pp.topic(t, "alarms", 2)
	pp.produce(t, "alarms", 0, 5, 8)
	if _, err := pp.follower.pullFrom(0); err != nil {
		t.Fatal(err)
	}
	pp.produce(t, "alarms", 0, 5, 8)
	rc, err := dialRPC(pp.follower.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.close()
	req := hwReq{Parts: []int{0, 1}, Topic: "alarms"}
	var resp hwResp
	if err := rc.callWire(opHighWatermarks, &req, &resp, nil); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("follower answered the high watermarks with %v, %v; want ErrNotLeader", resp.HWs, err)
	}
	lc, err := dialRPC(pp.leader.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.close()
	if err := lc.callWire(opHighWatermarks, &req, &resp, nil); err != nil || len(resp.HWs) != 2 || resp.HWs[0] != 10 {
		t.Fatalf("leader's high watermarks %v, %v; want [10 0]", resp.HWs, err)
	}
}

// TestStaleWireMemberRejoinsAtLogStart: a wire member whose position
// fell below the log start — a stale assignment's, its group having
// committed past it — gets ErrBelowLogStart and a rebalance signal,
// and the refresh the signal asks for resumes it at the start.
func TestStaleWireMemberRejoinsAtLogStart(t *testing.T) {
	s, _ := standalone(t, 1)
	appendFilled(t, s, 10, 8)
	c, err := Dial([]string{s.Addr()}, "alarms", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gc, _, err := c.NewGroupConsumer("verify", "m1")
	if err != nil {
		t.Fatal(err)
	}
	defer gc.Close()
	k := gc.(*Consumer)
	if err := k.CommitOffsets(map[int]int64{0: 6}); err != nil {
		t.Fatal(err)
	}
	k.mu.Lock()
	k.positions[0] = 2 // what an assignment read before the commit held
	k.mu.Unlock()
	if recs, _, err := k.PollLeased(10, 0, nil); !errors.Is(err, broker.ErrBelowLogStart) {
		t.Fatalf("poll from a stale position: %d records, %v; want ErrBelowLogStart", len(recs), err)
	}
	select {
	case <-k.Rebalances():
	default:
		t.Fatal("no rebalance signalled")
	}
	if err := k.RefreshAssignment(); err != nil {
		t.Fatal(err)
	}
	recs, lease, err := k.PollLeased(10, time.Second, nil)
	if err != nil || len(recs) != 4 || recs[0].Offset != 6 {
		t.Fatalf("poll after the refresh: %d records, %v", len(recs), err)
	}
	lease.Release()
}
