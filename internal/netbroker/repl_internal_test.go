package netbroker

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/frame"
)

// newTestServer boots a standalone server around a fresh in-memory
// broker for direct handler-level tests.
func newTestServer(t *testing.T) (*Server, *broker.Broker) {
	t.Helper()
	b := broker.New()
	srv, err := NewServer(b, "127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	t.Cleanup(func() { b.Close() })
	return srv, b
}

// TestVerifyPrefix pins the ack-verification table: a follower's
// reported (size, tail epoch) is an ack only if it names a true prefix
// of the leader's log, and every mismatch maps to the truncate target
// that converges on the divergence point.
func TestVerifyPrefix(t *testing.T) {
	srv, b := newTestServer(t)
	topic, err := b.CreateTopic("alarms", 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]broker.Record, 0, 3)
	for i, e := range []int64{1, 1, 2} {
		recs = append(recs, broker.Record{Value: []byte{byte(i)}, Epoch: e, Timestamp: time.Unix(int64(i), 0)})
	}
	if _, err := topic.Append(0, -1, 0, recs); err != nil {
		t.Fatal(err)
	}
	// Leader log epochs: [1, 1, 2].
	cases := []struct {
		size, tail int64
		ok         bool
		trunc      int64
	}{
		{0, 0, true, -1}, // empty log is a prefix of anything
		{5, 2, false, 3}, // longer than the leader: cut to leader size
		{3, 2, true, -1}, // the whole log, matching tail
		{3, 1, false, 2}, // equal length, divergent tail: back up one
		{2, 1, true, -1}, // true proper prefix
		{2, 2, false, 1}, // divergent mid-log tail: back up one
	}
	for _, c := range cases {
		ok, trunc := srv.verifyPrefix(topic, 0, c.size, c.tail)
		if ok != c.ok || (!ok && trunc != c.trunc) {
			t.Errorf("verifyPrefix(size=%d, tail=%d) = (%v, %d), want (%v, %d)",
				c.size, c.tail, ok, trunc, c.ok, c.trunc)
		}
	}
}

// TestReplFetchRespectsBudget feeds a log of 1MiB records whose full
// encoding would blow past MaxFrame through handleReplFetch and
// asserts every response frame stays within bounds while successive
// pulls still deliver the complete log. Without the byte budget the
// first pull would encode ~40MiB, fail the frame write, and — the next
// pull regenerating the same response — wedge replication permanently.
func TestReplFetchRespectsBudget(t *testing.T) {
	srv, b := newTestServer(t)
	topic, err := b.CreateTopic("alarms", 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	val := bytes.Repeat([]byte("x"), 1<<20)
	recs := make([]broker.Record, n)
	for i := range recs {
		recs[i] = broker.Record{Value: val, Epoch: 1, Timestamp: time.Unix(int64(i), 0)}
	}
	if _, err := topic.Append(0, -1, 0, recs); err != nil {
		t.Fatal(err)
	}

	var size, tail int64
	pulls := 0
	sc := srv.newConnScratch()
	var resp replFetchResp
	for size < n {
		if pulls++; pulls > 3*n {
			t.Fatalf("replication stalled: %d pulls reached only %d/%d records", pulls, size, n)
		}
		srv.handleReplFetch(&replFetchReq{
			NodeID: 1,
			Epoch:  1,
			Topics: []topicTails{{Name: "alarms", Sizes: []int64{size}, Tails: []int64{tail}}},
		}, &resp, sc)
		if resp.Err != "" {
			t.Fatalf("pull %d: %s", pulls, resp.Err)
		}
		if len(resp.Truncs) != 0 {
			t.Fatalf("pull %d: unexpected truncate instruction %v", pulls, resp.Truncs)
		}
		if _, err := AppendFrame(nil, resp.appendTo([]byte{opReplFetch})); err != nil {
			t.Fatalf("pull %d: response does not frame: %v", pulls, err)
		}
		if len(resp.Recs) == 0 {
			t.Fatalf("pull %d shipped nothing at size %d", pulls, size)
		}
		for _, r := range resp.Recs {
			if r.Offset != size {
				t.Fatalf("pull %d: record at offset %d, want %d", pulls, r.Offset, size)
			}
			size++
			tail = r.Epoch
		}
	}
	if pulls < 2 {
		t.Fatalf("all %d records shipped in one pull; the byte budget is not applied", n)
	}
}

// TestRetriableClassification pins the retry policy: only leadership
// churn, quorum-ack timeouts and transport failures are retried;
// semantic refusals (topic shape conflicts, bad offsets, stale
// generations) fail fast instead of burning the full retry window on
// an answer that cannot change.
func TestRetriableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"not leader", fmt.Errorf("%w (node 1, leader 0)", ErrNotLeader), true},
		{"ack timeout", ErrAckTimeout, true},
		{"transport", fmt.Errorf("%w: %v", errTransport, errors.New("connection reset")), true},
		{"net error", &net.OpError{Op: "dial", Err: errors.New("connection refused")}, true},
		{"partition-count conflict", errors.New(`netbroker: topic "alarms" has 4 partitions, requested 8`), false},
		{"unknown topic", fmt.Errorf("%w: alarms", broker.ErrUnknownTopic), false},
		{"invalid offset", broker.ErrInvalidOffset, false},
		{"stale generation", broker.ErrRebalanceStale, false},
		{"closed", broker.ErrClosed, false},
	}
	for _, c := range cases {
		if got := retriable(c.err); got != c.want {
			t.Errorf("%s: retriable(%v) = %v, want %v", c.name, c.err, got, c.want)
		}
	}
}

// TestUnservedPullFallsBackToTicker aims a follower at a peer that
// answers every pull at once with "no leader here" — an election
// window. The follower re-pulls at once only after a pull its leader
// served; here it must fall back to the ReplInterval ticker instead of
// spinning on the answers.
func TestUnservedPullFallsBackToTicker(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var pulls atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				fr := frame.NewReader(c, MaxFrame)
				var rbuf []byte
				for {
					body, buf, err := fr.Next(rbuf)
					rbuf = buf
					if err != nil || len(body) == 0 || body[0] != opReplFetch {
						return
					}
					pulls.Add(1)
					resp := replFetchResp{Epoch: 1, Leader: -1}
					if err := writeFrame(c, resp.appendTo(append(frame.Begin(nil), opReplFetch))); err != nil {
						return
					}
				}
			}()
		}
	}()

	const interval = 20 * time.Millisecond
	b := broker.New()
	defer b.Close()
	srv, err := NewServer(b, "127.0.0.1:0", Options{
		NodeID:          1,
		Peers:           []string{ln.Addr().String(), "127.0.0.1:0"},
		ReplInterval:    interval,
		ElectionTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const window = 25 * interval
	time.Sleep(window)
	if n := pulls.Load(); n == 0 || n > int64(window/interval)+2 {
		t.Fatalf("%d pulls in %s at ReplInterval %s", n, window, interval)
	}
}
