package netbroker

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"
	"time"

	"alarmverify/internal/broker"
)

// pullPair is a leader and a follower that pulls only when the test
// says so. The leader is a standalone node — it leads, and commits what
// it appends; the follower is a second standalone node re-pointed at it
// before anything connects, so no replLoop runs beside the test and
// every pull is one pullFrom call over a real connection.
type pullPair struct {
	leader, follower *Server
	lb, fb           *broker.Broker
}

func newPullPair(t testing.TB, interval time.Duration) *pullPair {
	t.Helper()
	boot := func() (*Server, *broker.Broker) {
		b := broker.New()
		// Group members in these tests never heartbeat.
		s, err := NewServer(b, "127.0.0.1:0", Options{ReplInterval: interval, SessionTimeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close(); b.Close() })
		return s, b
	}
	pp := &pullPair{}
	pp.leader, pp.lb = boot()
	pp.follower, pp.fb = boot()
	f := pp.follower
	f.mu.Lock()
	f.opts.NodeID, f.opts.Peers, f.leader = 1, []string{pp.leader.Addr(), f.Addr()}, 0
	f.mu.Unlock()
	return pp
}

// topic creates a topic on the leader the way a client does.
func (pp *pullPair) topic(t testing.TB, name string, parts int) {
	t.Helper()
	if resp := pp.leader.handleEnsureTopic(ensureTopicReq{Name: name, Partitions: parts}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
}

// produce appends n records of size bytes to one partition through the
// leader's append handler.
func (pp *pullPair) produce(t testing.TB, name string, p, n, size int) {
	t.Helper()
	sc := pp.leader.newConnScratch()
	for i := 0; i < n; i++ {
		req := appendReq{Topic: name, Partition: p, ProducerID: -1, Recs: []broker.Record{{
			Key: []byte(fmt.Sprintf("k%d", i)), Value: bytes.Repeat([]byte{byte(i)}, size), Timestamp: time.Unix(int64(i), 0)}}}
		var resp appendResp
		if pp.leader.handleAppend(&req, &resp, sc.timer); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
}

// diverge gives the follower a log of its own making: the first common
// records of the leader's partition, then extra records of an epoch the
// leader never had.
func (pp *pullPair) diverge(t testing.TB, name string, p int, common int64, extra int) {
	t.Helper()
	lt, err := pp.lb.Topic(name)
	if err != nil {
		t.Fatal(err)
	}
	ft := pp.follower.ensureLocalTopic(name, lt.Partitions())
	recs, err := lt.FetchLogInto(p, 0, int(common), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < extra; i++ {
		recs = append(recs, broker.Record{Offset: common + int64(i), Value: []byte("stray"), Epoch: 7, Timestamp: time.Unix(0, 1)})
	}
	if err := ft.AppendReplica(p, recs); err != nil {
		t.Fatal(err)
	}
}

// logs flattens a node's state into comparable form: every record of
// every partition (values by length and checksum), and the commit
// indexes.
func logs(t testing.TB, s *Server, b *broker.Broker) (map[string][]string, map[string][]int64) {
	t.Helper()
	recs, commits := make(map[string][]string), make(map[string][]int64)
	for _, tp := range b.AppendTopics(nil) {
		for p := 0; p < tp.Partitions(); p++ {
			size, _ := tp.LogSize(p)
			got, err := tp.FetchLogInto(p, 0, int(size), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range got {
				recs[tp.Name()] = append(recs[tp.Name()], fmt.Sprintf("%d/%d e%d %s=%d:%08x @%d", r.Partition, r.Offset, r.Epoch,
					r.Key, len(r.Value), crc32.ChecksumIEEE(r.Value), r.Timestamp.UnixNano()))
			}
		}
		s.mu.Lock()
		commits[tp.Name()] = append([]int64(nil), s.commits[tp.Name()]...)
		s.mu.Unlock()
	}
	return recs, commits
}

// TestPullConverges drives the pull through the cases the replication
// protocol tells apart and asserts what the follower ends up holding.
func TestPullConverges(t *testing.T) {
	const interval = 20 * time.Millisecond
	cases := []struct {
		name  string
		setup func(t *testing.T, pp *pullPair)
		// How many pulls, each of them served, convergence may take.
		minPulls, maxPulls int
	}{
		{"caught up: the pull is held", func(t *testing.T, pp *pullPair) {
			pp.topic(t, "alarms", 2)
			pp.produce(t, "alarms", 0, 3, 8)
			pp.diverge(t, "alarms", 0, 3, 0)
		}, 1, 1},
		{"behind by records across partitions", func(t *testing.T, pp *pullPair) {
			pp.topic(t, "alarms", 4)
			for p := 0; p < 4; p++ {
				pp.produce(t, "alarms", p, 5*p, 8)
			}
			pp.diverge(t, "alarms", 1, 2, 0)
		}, 1, 1},
		{"equal-length divergent tail", func(t *testing.T, pp *pullPair) {
			pp.topic(t, "alarms", 1)
			pp.produce(t, "alarms", 0, 6, 8)
			pp.diverge(t, "alarms", 0, 4, 2)
		}, 3, 3}, // two one-record truncations, then the re-sync
		{"follower longer than the leader", func(t *testing.T, pp *pullPair) {
			pp.topic(t, "alarms", 1)
			pp.produce(t, "alarms", 0, 2, 8)
			pp.diverge(t, "alarms", 0, 2, 5)
		}, 2, 2}, // one truncation to the leader's size, then the commit index
		{"topic unknown to the follower", func(t *testing.T, pp *pullPair) {
			pp.topic(t, "alarms", 2)
			pp.topic(t, "audit", 3)
			pp.produce(t, "audit", 2, 4, 8)
			pp.diverge(t, "alarms", 0, 0, 0)
		}, 1, 1}, // the pull that creates the topic already carries its records
		{"response cut by the byte budget", func(t *testing.T, pp *pullPair) {
			pp.topic(t, "alarms", 2)
			pp.produce(t, "alarms", 0, 9, 1<<20)
			pp.produce(t, "alarms", 1, 2, 1<<20)
		}, 2, 15},
		{"group offsets gossiped", func(t *testing.T, pp *pullPair) {
			pp.topic(t, "alarms", 2)
			pp.produce(t, "alarms", 0, 4, 8)
			pp.produce(t, "alarms", 1, 2, 8)
			if resp := pp.leader.handleJoin(joinReq{Group: "verify", Topic: "alarms", Member: "m1"}); resp.Err != "" {
				t.Fatal(resp.Err)
			} else if err := pp.lb.GroupCommit("verify", resp.Gen, map[int]int64{0: 3, 1: 2}); err != nil {
				t.Fatal(err)
			}
		}, 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pp := newPullPair(t, interval)
			c.setup(t, pp)
			wantRecs, wantCommits := logs(t, pp.leader, pp.lb)
			pulls := 0
			for {
				before, _ := logs(t, pp.follower, pp.fb)
				start := time.Now()
				served, err := pp.follower.pullFrom(0)
				if err != nil || !served {
					t.Fatalf("pull %d: served %v, %v", pulls+1, served, err)
				}
				pulls++
				gotRecs, gotCommits := logs(t, pp.follower, pp.fb)
				if reflect.DeepEqual(gotRecs, wantRecs) && reflect.DeepEqual(gotCommits, wantCommits) {
					break
				}
				if pulls >= c.maxPulls {
					t.Fatalf("after %d pulls the follower holds\n%v %v\nwant\n%v %v", pulls, gotRecs, gotCommits, wantRecs, wantCommits)
				}
				if reflect.DeepEqual(gotRecs, before) && time.Since(start) < interval {
					t.Fatalf("pull %d changed nothing and was not held", pulls)
				}
			}
			if pulls < c.minPulls {
				t.Fatalf("converged in %d pulls, expected at least %d", pulls, c.minPulls)
			}
			// One more pull finds nothing to do: the leader holds it for
			// the interval and the follower's state stays put.
			start := time.Now()
			if served, err := pp.follower.pullFrom(0); err != nil || !served {
				t.Fatalf("idle pull: served %v, %v", served, err)
			}
			if took := time.Since(start); took < interval {
				t.Fatalf("idle pull returned after %s, held for less than %s", took, interval)
			}
			if gotRecs, gotCommits := logs(t, pp.follower, pp.fb); !reflect.DeepEqual(gotRecs, wantRecs) || !reflect.DeepEqual(gotCommits, wantCommits) {
				t.Fatalf("an idle pull moved the follower to\n%v %v", gotRecs, gotCommits)
			}
			want, _ := pp.lb.GroupCommitted("verify")
			if got, _ := pp.fb.GroupCommitted("verify"); !reflect.DeepEqual(got, want) {
				t.Fatalf("follower's group offsets %v, leader's %v", got, want)
			}
		})
	}
}
