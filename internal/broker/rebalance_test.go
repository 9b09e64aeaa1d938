package broker

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// loadTopic creates a broker with one topic preloaded with n keyed
// records spread over the given partitions.
func loadTopic(t *testing.T, partitions, n int) (*Broker, *Topic) {
	t.Helper()
	b := New()
	topic, err := b.CreateTopic("t", partitions)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProducer(topic)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if _, _, err := p.SendAt(key, []byte{byte(i)}, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	return b, topic
}

func TestCommitFencedByRebalanceEndToEnd(t *testing.T) {
	b, topic := loadTopic(t, 4, 400)
	defer b.Close()

	c1, err := NewConsumer(b, "g", topic, "c1")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	recs, err := pollCopy(c1, 100, time.Second)
	if err != nil || len(recs) == 0 {
		t.Fatalf("poll: %d records, err %v", len(recs), err)
	}

	// A second member joins between c1's poll and its commit: the
	// commit must be fenced, and nothing may become durable from it.
	c2, err := NewConsumer(b, "g", topic, "c2")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := commitPositions(c1); !errors.Is(err, ErrRebalanceStale) {
		t.Fatalf("commit after rebalance = %v, want ErrRebalanceStale", err)
	}
	committed, err := b.GroupCommitted("g")
	if err != nil {
		t.Fatal(err)
	}
	for p, off := range committed {
		if off != 0 {
			t.Errorf("partition %d committed %d records from a fenced commit", p, off)
		}
	}

	// After refreshing, c1 re-reads from the committed offsets (the
	// fenced records are redelivered, not lost) and can commit again.
	if err := c1.RefreshAssignment(); err != nil {
		t.Fatal(err)
	}
	recs2, err := pollCopy(c1, 100, time.Second)
	if err != nil || len(recs2) == 0 {
		t.Fatalf("re-poll: %d records, err %v", len(recs2), err)
	}
	if err := commitPositions(c1); err != nil {
		t.Fatalf("commit after refresh: %v", err)
	}
	committed, err = b.GroupCommitted("g")
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, off := range committed {
		sum += off
	}
	if sum != int64(len(recs2)) {
		t.Fatalf("committed %d records, want %d", sum, len(recs2))
	}
}

func TestRebalanceNotifications(t *testing.T) {
	b, topic := loadTopic(t, 4, 0)
	defer b.Close()

	c1, err := NewConsumer(b, "g", topic, "c1")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	select {
	case <-c1.Rebalances():
		t.Fatal("sole member notified of its own join")
	default:
	}

	c2, err := NewConsumer(b, "g", topic, "c2")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c1.Rebalances():
	case <-time.After(time.Second):
		t.Fatal("c1 not notified of c2 joining")
	}
	select {
	case <-c2.Rebalances():
		t.Fatal("joining member notified of its own join")
	default:
	}

	gen, err := b.GroupGeneration("g")
	if err != nil {
		t.Fatal(err)
	}
	if c1.gen >= gen {
		t.Fatalf("c2's join left the group at generation %d, c1 already at %d", gen, c1.gen)
	}
	if err := c1.RefreshAssignment(); err != nil {
		t.Fatal(err)
	}
	if c1.gen != gen {
		t.Fatalf("refreshed c1 holds generation %d, the group %d", c1.gen, gen)
	}

	c2.Close()
	select {
	case <-c1.Rebalances():
	case <-time.After(time.Second):
		t.Fatal("c1 not notified of c2 leaving")
	}
}

// TestPollPacesEmptyAssignment: a member that owns no partitions
// (more members than partitions) must block for the poll timeout
// instead of returning immediately — otherwise its poll loop
// busy-spins at 100% CPU.
func TestPollPacesEmptyAssignment(t *testing.T) {
	b, topic := loadTopic(t, 1, 10)
	defer b.Close()
	c1, err := NewConsumer(b, "g", topic, "c1")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := NewConsumer(b, "g", topic, "c2")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// One partition, two members: exactly one of them is empty.
	empty := c2
	if len(c2.Assignment()) != 0 {
		if err := c1.RefreshAssignment(); err != nil {
			t.Fatal(err)
		}
		empty = c1
	}
	if len(empty.Assignment()) != 0 {
		t.Fatal("expected one member with an empty assignment")
	}
	start := time.Now()
	recs, err := pollCopy(empty, 10, 50*time.Millisecond)
	if err != nil || recs != nil {
		t.Fatalf("empty-assignment poll = %d records, err %v", len(recs), err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("empty-assignment poll returned after %s, want ~50ms block", elapsed)
	}
}

func TestGroupCommittedQueries(t *testing.T) {
	b, topic := loadTopic(t, 2, 100)
	defer b.Close()

	if _, err := b.GroupCommitted("nope"); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("unknown group error = %v", err)
	}

	c, err := NewConsumer(b, "g", topic, "c")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := pollCopy(c, 100, time.Second); err != nil {
		t.Fatal(err)
	}
	positions := c.PositionsInto(nil)
	if err := c.CommitOffsets(positions); err != nil {
		t.Fatal(err)
	}
	committed, err := b.GroupCommitted("g")
	if err != nil {
		t.Fatal(err)
	}
	for p, off := range positions {
		if committed[p] != off {
			t.Errorf("partition %d: coordinator committed %d, want %d", p, committed[p], off)
		}
	}
	// The coordinator's view covers every partition the consumer holds.
	for _, p := range c.Assignment() {
		if _, ok := committed[p]; !ok {
			t.Errorf("partition %d: assigned but missing from the coordinator's view", p)
		}
	}
}

// TestRebalanceChurnConcurrentJoinLeave hammers the coordinator with
// membership churn while two stable consumers poll and commit,
// recovering from ErrRebalanceStale by refreshing — the end-to-end
// path the sharded service relies on. Run with -race.
func TestRebalanceChurnConcurrentJoinLeave(t *testing.T) {
	const total = 2000
	b, topic := loadTopic(t, 8, total)
	defer b.Close()

	var mu sync.Mutex
	seen := make(map[string]struct{}) // "partition/offset" pairs consumed
	staleCommits := 0

	var wg sync.WaitGroup
	stopChurn := make(chan struct{})

	// Churn: a transient member repeatedly joins and leaves.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopChurn:
				return
			default:
			}
			c, err := NewConsumer(b, "g", topic, fmt.Sprintf("transient-%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
			c.Close()
			time.Sleep(time.Millisecond)
		}
	}()

	// Two stable consumers drain the topic, refreshing on stale
	// commits. Coverage (not exactly-once) is asserted: records
	// re-polled after a fenced commit are deduplicated via `seen`.
	consume := func(id string) {
		defer wg.Done()
		c, err := NewConsumer(b, "g", topic, id)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			recs, err := pollCopy(c, 64, 5*time.Millisecond)
			if err != nil {
				t.Errorf("%s: poll: %v", id, err)
				return
			}
			mu.Lock()
			for _, r := range recs {
				seen[fmt.Sprintf("%d/%d", r.Partition, r.Offset)] = struct{}{}
			}
			done := len(seen) == total
			mu.Unlock()
			if err := commitPositions(c); err != nil {
				if !errors.Is(err, ErrRebalanceStale) {
					t.Errorf("%s: commit: %v", id, err)
					return
				}
				mu.Lock()
				staleCommits++
				mu.Unlock()
				if err := c.RefreshAssignment(); err != nil {
					t.Errorf("%s: refresh: %v", id, err)
					return
				}
			}
			select {
			case <-c.Rebalances():
				if err := c.RefreshAssignment(); err != nil {
					t.Errorf("%s: refresh: %v", id, err)
					return
				}
			default:
			}
			if done {
				return
			}
		}
		t.Errorf("%s: timed out before full coverage", id)
	}
	wg.Add(2)
	go consume("stable-a")
	go consume("stable-b")

	// Let the churn overlap the consumption, then stop it so the
	// stable members can finish the drain.
	time.Sleep(50 * time.Millisecond)
	close(stopChurn)
	wg.Wait()

	if len(seen) != total {
		t.Fatalf("consumed %d distinct records, want %d — records lost under churn", len(seen), total)
	}
	// Committed offsets never exceed the high watermarks.
	committed, err := b.GroupCommitted("g")
	if err != nil {
		t.Fatal(err)
	}
	for p, off := range committed {
		hw, err := topic.HighWatermark(p)
		if err != nil {
			t.Fatal(err)
		}
		if off > hw {
			t.Errorf("partition %d committed %d past high watermark %d", p, off, hw)
		}
	}
	t.Logf("churn survived: %d stale commits recovered", staleCommits)
}

// TestJoinUnderPresentIdKeepsOneMember: a remote member that rejoins
// under its own id (after a dropped connection, say) stays one member
// — it keeps every partition, moves no generation, and a later leave
// removes it for good — and each join returns the group's generation.
func TestJoinUnderPresentIdKeepsOneMember(t *testing.T) {
	b, topic := loadTopic(t, 4, 0)
	defer b.Close()
	for i := 0; i < 2; i++ {
		parts, _, gen, err := b.JoinGroup("g", topic, "m1")
		if err != nil {
			t.Fatal(err)
		}
		cur, err := b.GroupGeneration("g")
		if err != nil {
			t.Fatal(err)
		}
		if gen != cur || gen != 1 {
			t.Fatalf("join %d returned generation %d, the group is at %d, want 1", i+1, gen, cur)
		}
		if len(parts) != 4 {
			t.Fatalf("join %d: sole member assigned %v, want all 4 partitions", i+1, parts)
		}
	}
	parts, _, gen, err := b.JoinGroup("g", topic, "m2")
	if err != nil || gen != 2 || len(parts) != 2 {
		t.Fatalf("second member's join = %v at generation %d, %v; want 2 partitions at 2", parts, gen, err)
	}
	b.LeaveGroup("g", "m1")
	g, err := b.lookupGroup("g")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := g.assignment("m1"); !errors.Is(err, ErrNotMember) {
		t.Fatalf("assignment after m1's one leave: %v, want ErrNotMember", err)
	}
	if parts, _, gen, err := g.assignment("m2"); err != nil || gen != 3 || len(parts) != 4 {
		t.Fatalf("survivor's assignment = %v at generation %d, %v; want all 4 at 3", parts, gen, err)
	}
}
