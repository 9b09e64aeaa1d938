package broker

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func leaseTopic(t *testing.T, parts, records int) (*Broker, *Topic) {
	t.Helper()
	b := New()
	topic, err := b.CreateTopic("alarms", parts)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProducer(topic)
	for i := 0; i < records; i++ {
		key := []byte(fmt.Sprintf("dev-%d", i%7))
		val := []byte(fmt.Sprintf("payload-%04d", i))
		if _, _, err := p.SendAt(key, val, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	return b, topic
}

// TestAppendDoesNotAliasProducerBuffers pins the arena contract: the
// log copies payloads on append, so a producer reusing (or trashing)
// its buffers cannot corrupt already-acknowledged records.
func TestAppendDoesNotAliasProducerBuffers(t *testing.T) {
	b := New()
	topic, err := b.CreateTopic("alarms", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProducer(topic)
	buf := []byte("stable-value")
	if _, _, err := p.SendAt([]byte("k"), buf, time.Time{}); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'X' // producer reuses its buffer
	}
	recs, err := topic.Fetch(0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if string(recs[0].Value) != "stable-value" {
		t.Fatalf("log aliases producer buffer: %q", recs[0].Value)
	}
	_ = b
}

// leasedPoll polls up to max records of a fresh group member under a
// lease.
func leasedPoll(t *testing.T, b *Broker, topic *Topic, max int, dst []Record) ([]Record, *Lease, error) {
	t.Helper()
	c, err := NewConsumer(b, "lease-test", topic, "m")
	if err != nil {
		t.Fatal(err)
	}
	return c.PollLeased(max, time.Second, dst)
}

// TestFetchLeaseReturnsRecords: a leased fetch returns the records
// under a live lease, and releasing it is idempotent.
func TestFetchLeaseReturnsRecords(t *testing.T) {
	b, topic := leaseTopic(t, 1, 10)
	scratch := make([]Record, 0, 16)
	recs, lease, err := leasedPoll(t, b, topic, 10, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("got %d records, want 10", len(recs))
	}
	if string(recs[3].Value) != "payload-0003" {
		t.Fatalf("unexpected value %q", recs[3].Value)
	}
	if lease.Released() {
		t.Fatal("fresh lease reports released")
	}
	lease.Release()
	if !lease.Released() {
		t.Fatal("lease not released")
	}
	lease.Release() // idempotent
}

// TestLeaseCheckPoisonsOnRelease is the mutate-after-release
// regression test: with lease checking on, values read under a lease
// are deterministically destroyed at release, so any stage that holds
// a record past its batch's release observes poison instead of
// silently reading reused memory.
func TestLeaseCheckPoisonsOnRelease(t *testing.T) {
	SetLeaseCheck(true)
	defer SetLeaseCheck(false)
	b, topic := leaseTopic(t, 1, 4)
	recs, lease, err := leasedPoll(t, b, topic, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	held := recs[2].Value
	if string(held) != "payload-0002" {
		t.Fatalf("pre-release value wrong: %q", held)
	}
	lease.Release()
	for _, got := range held {
		if got != leasePoison {
			t.Fatalf("use-after-release went undetected: %q", held)
		}
	}
	// The log itself must be unharmed: only the lease's private copies
	// are poisoned, never the shared arena.
	fresh, err := topic.Fetch(0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(fresh[0].Value) != "payload-0002" {
		t.Fatalf("release poisoned the log: %q", fresh[0].Value)
	}
}

func TestPollLeasedMatchesPoll(t *testing.T) {
	b, topic := leaseTopic(t, 4, 200)
	plain, err := NewConsumer(b, "plain", topic, "c0")
	if err != nil {
		t.Fatal(err)
	}
	leased, err := NewConsumer(b, "leased", topic, "c1")
	if err != nil {
		t.Fatal(err)
	}
	var want, got []Record
	for len(want) < 200 {
		recs, err := plain.Poll(64, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		want = append(want, recs...)
	}
	scratch := make([]Record, 0, 64)
	var leases []*Lease
	for len(got) < 200 {
		recs, lease, err := leased.PollLeased(64, 10*time.Millisecond, scratch[:0])
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		// Copy out before the scratch is reused next iteration.
		for _, r := range recs {
			r.Value = append([]byte(nil), r.Value...)
			got = append(got, r)
		}
		leases = append(leases, lease)
	}
	if leased.LeaseStats().Active != int64(len(leases)) {
		t.Fatalf("active leases %d, want %d", leased.LeaseStats().Active, len(leases))
	}
	for _, l := range leases {
		l.Release()
	}
	if leased.LeaseStats().Active != 0 {
		t.Fatalf("leases leaked: %d active after release", leased.LeaseStats().Active)
	}
	if len(got) != len(want) {
		t.Fatalf("leased poll drained %d records, plain drained %d", len(got), len(want))
	}
	byOffset := func(rs []Record) map[string]string {
		m := make(map[string]string, len(rs))
		for _, r := range rs {
			m[fmt.Sprintf("%d/%d", r.Partition, r.Offset)] = string(r.Value)
		}
		return m
	}
	wm, gm := byOffset(want), byOffset(got)
	for k, v := range wm {
		if gm[k] != v {
			t.Fatalf("record %s: leased %q plain %q", k, gm[k], v)
		}
	}
}

// TestLeaseHammer runs concurrent producers and leased consumers under
// the race detector with lease checking enabled: all records must
// arrive intact (copied out before release), and every release must
// leave the log readable.
func TestLeaseHammer(t *testing.T) {
	SetLeaseCheck(true)
	defer SetLeaseCheck(false)
	b := New()
	topic, err := b.CreateTopic("alarms", 4)
	if err != nil {
		t.Fatal(err)
	}
	const perProducer = 300
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := NewProducer(topic)
			buf := make([]byte, 0, 32)
			for i := 0; i < perProducer; i++ {
				buf = append(buf[:0], fmt.Sprintf("w%d-%04d", w, i)...)
				if _, _, err := p.SendAt([]byte{byte('a' + i%4)}, buf, time.Time{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	cons, err := NewConsumer(b, "hammer", topic, "c0")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	scratch := make([]Record, 0, 128)
	deadline := time.Now().Add(5 * time.Second)
	for len(seen) < 2*perProducer && time.Now().Before(deadline) {
		recs, lease, err := cons.PollLeased(128, 20*time.Millisecond, scratch[:0])
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if bytes.IndexByte(r.Value, leasePoison) >= 0 {
				t.Fatalf("live record already poisoned: %q", r.Value)
			}
			seen[string(r.Value)] = true
		}
		lease.Release()
	}
	wg.Wait()
	if len(seen) != 2*perProducer {
		t.Fatalf("saw %d distinct records, want %d", len(seen), 2*perProducer)
	}
	if cons.LeaseStats().Active != 0 {
		t.Fatalf("%d leases leaked", cons.LeaseStats().Active)
	}
}

// TestReleaseAfterRecycling pins what recycling does to Release's
// idempotence. A released lease goes out again with the next poll that
// fetches, so a second Release is absorbed only until then: after it, a
// stale holder's Release ends the new holder's borrow. Check mode
// surfaces the bug instead — a released lease is retired, never lent
// again, and its second Release panics.
func TestReleaseAfterRecycling(t *testing.T) {
	b, topic := leaseTopic(t, 1, 3)
	cons, err := NewConsumer(b, "g", topic, "c0")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	poll := func() *Lease {
		recs, lease, err := cons.PollLeased(1, time.Second, nil)
		if err != nil || len(recs) != 1 {
			t.Fatalf("poll = %d records, %v", len(recs), err)
		}
		return lease
	}
	first := poll()
	first.Release()
	first.Release() // not lent again yet: absorbed
	second := poll()
	if second != first || cons.LeaseStats().Active != 1 {
		t.Fatalf("second poll drew a new lease (%d active), want the released one", cons.LeaseStats().Active)
	}
	first.Release() // the stale holder
	if !second.Released() || cons.LeaseStats().Active != 0 {
		t.Fatal("a stale Release after recycling was absorbed; the doc says it is not")
	}

	SetLeaseCheck(true)
	defer SetLeaseCheck(false)
	third := poll()
	third.Release()
	if st := cons.LeaseStats(); st.Active != 0 || st.Free != 0 {
		t.Fatalf("check mode kept a released lease: %+v", st)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("check mode absorbed a second Release of a pooled lease")
		}
	}()
	third.Release()
}
