package broker

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tests in this file prove that the in-process consume path is
// event-driven rather than a faster timer: a poll that found nothing
// parks on its consumer's wake channel and returns when one of the
// five wake sources — Append, AppendReplica, SetVisibleLimit, a
// partition closing, Consumer.Close — changes what it could read.
// Every poll timeout here is far above the bound asserted, so a wait
// that still ran on a timer, however short its slices, fails them.

// polled is what a parked poll came back with, and when.
type polled struct {
	recs []Record
	err  error
	at   time.Time
}

// eventConsumer joins group "g" on a fresh topic of the given
// partition count as its only member.
func eventConsumer(t *testing.T, partitions int) (*Broker, *Topic, *Consumer) {
	t.Helper()
	b := New()
	t.Cleanup(func() { b.Close() })
	topic := mustTopic(t, b, "alarms", partitions)
	c, err := NewConsumer(b, "g", topic, "c1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return b, topic, c
}

// parkPoll starts Poll(1, timeout) on its own goroutine and gives it
// time to find nothing and park.
func parkPoll(c *Consumer, timeout time.Duration) <-chan polled {
	done := make(chan polled, 1)
	go func() {
		recs, err := pollCopy(c, 1, timeout)
		done <- polled{recs, err, time.Now()}
	}()
	// Nothing observable says the poll has parked; if it has not, the
	// assertions below still hold, only less pointedly.
	time.Sleep(20 * time.Millisecond)
	return done
}

// wantWoken asserts the parked poll returns within 100 ms of since
// with exactly want records.
func wantWoken(t *testing.T, done <-chan polled, since time.Time, want int) polled {
	t.Helper()
	select {
	case got := <-done:
		if late := got.at.Sub(since); late >= 100*time.Millisecond {
			t.Fatalf("parked poll returned %s after the event", late)
		}
		if got.err != nil || len(got.recs) != want {
			t.Fatalf("parked poll returned %d records, err %v; want %d", len(got.recs), got.err, want)
		}
		return got
	case <-time.After(5 * time.Second):
		t.Fatal("parked poll did not wake on the event")
	}
	return polled{}
}

// wantParked asserts the poll is still parked after d.
func wantParked(t *testing.T, done <-chan polled, d time.Duration) {
	t.Helper()
	select {
	case got := <-done:
		t.Fatalf("poll returned %d records, err %v while nothing it could read had changed", len(got.recs), got.err)
	case <-time.After(d):
	}
}

// TestParkedPollWakeLatency: a consumer of four partitions, parked
// with a 2 s timeout, hands over each of 200 records appended to a
// random partition within a scheduler hand-off of the append's return.
// A wait in 500 µs slices — which the runtime sleeps as 1.1 ms — reads
// a median of about half a slice here.
func TestParkedPollWakeLatency(t *testing.T) {
	_, topic, c := eventConsumer(t, 4)
	const n = 200
	results := make(chan polled)
	go func() {
		for i := 0; i < n; i++ {
			recs, err := pollCopy(c, 1, 2*time.Second)
			results <- polled{recs, err, time.Now()}
		}
	}()
	rng := rand.New(rand.NewSource(18))
	gaps := make([]time.Duration, n)
	for i := range gaps {
		time.Sleep(2 * time.Millisecond) // let the consumer come back and park
		p := rng.Intn(4)
		if _, err := topic.Append(p, -1, 0, []Record{{Value: []byte{byte(i)}}}); err != nil {
			t.Fatal(err)
		}
		appended := time.Now()
		got := <-results
		if got.err != nil || len(got.recs) != 1 || got.recs[0].Partition != p || got.recs[0].Value[0] != byte(i) {
			t.Fatalf("append %d to partition %d: poll returned %v, %v", i, p, got.recs, got.err)
		}
		gaps[i] = got.at.Sub(appended)
	}
	slices.Sort(gaps)
	t.Logf("append return → poll return: p50 %s, p90 %s, max %s", gaps[n/2], gaps[n*9/10], gaps[n-1])
	if raceBuild {
		return // the race runtime's own cost is of the order of the bound
	}
	if median := gaps[n/2]; median >= 300*time.Microsecond {
		t.Fatalf("median append → poll gap %s with a 2 s timeout: the poll waits on a timer, not on the append", median)
	}
}

func TestWakeOnAppend(t *testing.T) {
	_, topic, c := eventConsumer(t, 4)
	done := parkPoll(c, 10*time.Second)
	if _, err := topic.Append(2, -1, 0, []Record{{Value: []byte("wake")}}); err != nil {
		t.Fatal(err)
	}
	wantWoken(t, done, time.Now(), 1)
}

func TestWakeOnAppendReplica(t *testing.T) {
	_, topic, c := eventConsumer(t, 4)
	done := parkPoll(c, 10*time.Second)
	if err := topic.AppendReplica(1, []Record{{Offset: 0, Value: []byte("wake"), Timestamp: time.Now()}}); err != nil {
		t.Fatal(err)
	}
	wantWoken(t, done, time.Now(), 1)
}

// TestWakeOnSetVisibleLimit: records past the visible limit wake the
// poll only to park it again; raising the limit over them is what
// hands them over.
func TestWakeOnSetVisibleLimit(t *testing.T) {
	_, topic, c := eventConsumer(t, 4)
	topic.SetVisibleLimit(3, 0)
	done := parkPoll(c, 10*time.Second)
	if _, err := topic.Append(3, -1, 0, []Record{{Value: []byte("held")}}); err != nil {
		t.Fatal(err)
	}
	wantParked(t, done, 50*time.Millisecond)
	topic.SetVisibleLimit(3, 1)
	wantWoken(t, done, time.Now(), 1)
}

// TestWakeOnPartitionClose: closing the broker under a poll parked on
// several partitions ends it at once (it used to hold the caller for
// the whole timeout unless the consumer owned exactly one partition).
func TestWakeOnPartitionClose(t *testing.T) {
	b, _, c := eventConsumer(t, 4)
	done := parkPoll(c, 10*time.Second)
	start := time.Now()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	wantWoken(t, done, start, 0)
}

// TestPollAfterPartitionCloseStaysParked: a close ends the poll that was
// parked through it, not the polls that come after. A caller that
// loops on Poll after Broker.Close (the serve intake loop does) waits
// out its timeout each time round instead of spinning; at most one
// wake token left over from the close itself comes back early.
func TestPollAfterPartitionCloseStaysParked(t *testing.T) {
	b, _, c := eventConsumer(t, 4)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	const timeout = 50 * time.Millisecond
	var slowest time.Duration
	for i := 0; i < 3; i++ {
		start := time.Now()
		if recs, err := pollCopy(c, 1, timeout); err != nil || recs != nil {
			t.Fatalf("poll on a closed broker = %v, %v", recs, err)
		}
		slowest = max(slowest, time.Since(start))
	}
	if slowest < timeout*8/10 {
		t.Fatalf("three polls on a closed broker each returned within %s of a %s timeout", slowest, timeout)
	}
}

// TestWakeChannelReleasedOnClose: Close takes the wake channel off
// the partitions for good. A RefreshAssignment racing it (Close drops
// the consumer's lock before it leaves the group) fails instead of
// registering the channel again behind Close's back, where every later
// append would keep signalling it.
func TestWakeChannelReleasedOnClose(t *testing.T) {
	for round := 0; round < 200; round++ {
		b := New()
		topic := mustTopic(t, b, "alarms", 4)
		c, err := NewConsumer(b, "g", topic, "c1")
		if err != nil {
			t.Fatal(err)
		}
		refreshed := make(chan struct{})
		go func() {
			defer close(refreshed)
			for c.RefreshAssignment() == nil {
			}
		}()
		c.Close()
		<-refreshed
		if err := c.RefreshAssignment(); err == nil {
			t.Fatal("RefreshAssignment on a closed consumer succeeded")
		}
		for _, p := range topic.partitions {
			p.mu.Lock()
			n := len(p.waiters)
			p.mu.Unlock()
			if n != 0 {
				t.Fatalf("round %d: partition %d still signals %d channel(s) of a closed consumer", round, p.index, n)
			}
		}
		b.Close()
	}
}

// TestWakeOnConsumerClose: Close from another goroutine ends the
// consumer's parked poll.
func TestWakeOnConsumerClose(t *testing.T) {
	_, _, c := eventConsumer(t, 4)
	done := parkPoll(c, 10*time.Second)
	start := time.Now()
	c.Close()
	wantWoken(t, done, start, 0)
}

// TestParkedPollWithoutPartitionsEndsOnClose: a member that owns no
// partition parks for its timeout (TestPollPacesEmptyAssignment) but
// not through its own Close.
func TestParkedPollWithoutPartitionsEndsOnClose(t *testing.T) {
	b, topic, _ := eventConsumer(t, 1)
	spare, err := NewConsumer(b, "g", topic, "c2")
	if err != nil {
		t.Fatal(err)
	}
	if got := spare.Assignment(); len(got) != 0 {
		t.Fatalf("second member of a one-partition topic owns %v", got)
	}
	done := parkPoll(spare, 10*time.Second)
	start := time.Now()
	spare.Close()
	wantWoken(t, done, start, 0)
}

// TestParkedPollIgnoresUnownedAppend: an append to a partition another
// member owns is not this consumer's event.
func TestParkedPollIgnoresUnownedAppend(t *testing.T) {
	b, topic, c1 := eventConsumer(t, 2)
	c2, err := NewConsumer(b, "g", topic, "c2")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c1.RefreshAssignment(); err != nil {
		t.Fatal(err)
	}
	own, other := c1.Assignment(), c2.Assignment()
	if len(own) != 1 || len(other) != 1 || own[0] == other[0] {
		t.Fatalf("assignments %v and %v, want one distinct partition each", own, other)
	}
	done := parkPoll(c1, 10*time.Second)
	if _, err := topic.Append(other[0], -1, 0, []Record{{Value: []byte("theirs")}}); err != nil {
		t.Fatal(err)
	}
	if len(c1.wake) != 0 {
		t.Fatal("an append to an unowned partition left a wake token")
	}
	wantParked(t, done, 50*time.Millisecond)
	if _, err := topic.Append(own[0], -1, 0, []Record{{Value: []byte("ours")}}); err != nil {
		t.Fatal(err)
	}
	wantWoken(t, done, time.Now(), 1)
}

// TestParkedPollFollowsRefreshedAssignment: a poll parked under one
// assignment is woken by the refresh and then by appends to the
// partitions it gained. The leave that freed them ended the poll that
// followed it (TestParkedPollEndsOnRebalanceOnce), so the poll parks
// after that one.
func TestParkedPollFollowsRefreshedAssignment(t *testing.T) {
	b, topic, c1 := eventConsumer(t, 2)
	c2, err := NewConsumer(b, "g", topic, "c2")
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.RefreshAssignment(); err != nil {
		t.Fatal(err)
	}
	gained := c2.Assignment()[0]
	c2.Close()
	if recs, err := pollCopy(c1, 1, 10*time.Second); err != nil || len(recs) != 0 {
		t.Fatalf("poll after a leave: %d records, %v; want an empty poll", len(recs), err)
	}
	done := parkPoll(c1, 10*time.Second)
	if err := c1.RefreshAssignment(); err != nil {
		t.Fatal(err)
	}
	wantParked(t, done, 50*time.Millisecond)
	if _, err := topic.Append(gained, -1, 0, []Record{{Value: []byte("gained")}}); err != nil {
		t.Fatal(err)
	}
	if got := wantWoken(t, done, time.Now(), 1); got.recs[0].Partition != gained {
		t.Fatalf("woken with a record of partition %d, want %d", got.recs[0].Partition, gained)
	}
}

// TestParkedPollEndsOnRebalanceOnce: a member parked for 3 s comes
// back empty at a second member's join, leaving the join's token on
// Rebalances for its caller, and only that poll ends early: the next
// idle one parks for its whole timeout, so a caller that never reads
// Rebalances is still paced.
func TestParkedPollEndsOnRebalanceOnce(t *testing.T) {
	b, topic, c1 := eventConsumer(t, 4)
	done := parkPoll(c1, 3*time.Second)
	joined := time.Now()
	c2, err := NewConsumer(b, "g", topic, "c2")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	select {
	case got := <-done:
		if late := got.at.Sub(joined); late >= time.Second {
			t.Fatalf("parked poll returned %s after the join", late)
		}
		if got.err != nil || len(got.recs) != 0 {
			t.Fatalf("parked poll returned %d records, err %v; want an empty poll", len(got.recs), got.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked poll did not end at the join")
	}
	if len(c1.Rebalances()) != 1 {
		t.Fatal("the join's token left Rebalances")
	}
	start := time.Now()
	if recs, err := pollCopy(c1, 1, 200*time.Millisecond); err != nil || len(recs) != 0 {
		t.Fatalf("idle poll: %d records, %v", len(recs), err)
	}
	if took := time.Since(start); took < 150*time.Millisecond {
		t.Fatalf("the idle poll after the rebalance's returned after %s, want its 200 ms timeout", took)
	}
	if len(c1.Rebalances()) != 1 {
		t.Fatal("the idle poll took the join's token")
	}
}

// TestLostWakeupHammer: four producers over eight partitions against
// two group members polling with a 30 s timeout. Every record must be
// consumed exactly once well inside one timeout: a wake lost between a
// member's sweep and its park is a 30 s hang here, not a slow pass.
func TestLostWakeupHammer(t *testing.T) {
	const producers, perProducer, partitions = 4, 2000, 8
	const total = producers * perProducer
	b := New()
	defer b.Close()
	topic := mustTopic(t, b, "alarms", partitions)
	members := make([]*Consumer, 2)
	for i := range members {
		c, err := NewConsumer(b, "g", topic, fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		members[i] = c
	}
	if err := members[0].RefreshAssignment(); err != nil {
		t.Fatal(err)
	}

	var consumed atomic.Int64
	var mu sync.Mutex
	seen := make(map[string]int, total)
	finished := make(chan struct{})
	var consumers sync.WaitGroup
	for _, c := range members {
		consumers.Add(1)
		go func(c *Consumer) {
			defer consumers.Done()
			for {
				// Small polls keep the members at the edge of their
				// logs, where sweep and append race.
				recs, err := pollCopy(c, 8, 30*time.Second)
				if err != nil || len(recs) == 0 {
					return // closed below, once everything arrived
				}
				mu.Lock()
				for _, r := range recs {
					seen[string(r.Value)]++
				}
				mu.Unlock()
				if consumed.Add(int64(len(recs))) == total {
					close(finished)
				}
			}
		}(c)
	}
	start := time.Now()
	var sending sync.WaitGroup
	for pid := 0; pid < producers; pid++ {
		sending.Add(1)
		go func(pid int) {
			defer sending.Done()
			p := NewProducer(topic)
			for i := 0; i < perProducer; i++ {
				key := []byte(fmt.Sprintf("p%d-%d", pid, i))
				if _, _, err := p.SendAt(key, key, time.Time{}); err != nil {
					t.Errorf("send %s: %v", key, err)
					return
				}
			}
		}(pid)
	}
	sending.Wait()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Errorf("consumed %d of %d records %s after the producers finished: a wake was lost",
			consumed.Load(), total, time.Since(start))
	}
	for _, c := range members {
		c.Close() // ends the members' parked polls
	}
	consumers.Wait()
	if took := time.Since(start); took >= 5*time.Second {
		t.Errorf("hammer took %s", took)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != total {
		t.Errorf("%d distinct records consumed, want %d", len(seen), total)
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("record %s consumed %d times", key, n)
		}
	}
}
