package netbroker_test

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/netbroker"
)

// leaseClient boots a standalone node with a topic of parts partitions
// and returns a client of it with a producer.
func leaseClient(t *testing.T, parts int) (*netbroker.Client, *netbroker.Producer) {
	t.Helper()
	srv, _ := startStandalone(t)
	c, err := netbroker.Dial([]string{srv.Addr()}, "alarms", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.EnsureTopic(parts); err != nil {
		t.Fatal(err)
	}
	p, err := c.NewProducer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return c, p
}

// pollOne polls until one record arrives and returns it with its lease.
func pollOne(t *testing.T, cons broker.GroupConsumer) (broker.Record, *broker.Lease) {
	t.Helper()
	recs, lease, err := cons.PollLeased(1, 5*time.Second, nil)
	if err != nil || len(recs) != 1 {
		t.Fatalf("poll = %d records, %v; want 1", len(recs), err)
	}
	return recs[0], lease
}

// TestFetchedBytesBelongToTheLease: over the wire a record's value is a
// view of the receive buffer its lease owns. While the lease is held,
// later fetches are read elsewhere; once it is released, the next fetch
// is read over it — which is why nothing may touch a record after its
// batch's release.
func TestFetchedBytesBelongToTheLease(t *testing.T) {
	c, p := leaseClient(t, 1)
	for i := 0; i < 5; i++ {
		if _, _, err := p.SendAt([]byte("k"), []byte(fmt.Sprintf("value-%d", i)), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	cons, _, err := c.NewGroupConsumer("g", "m")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()

	first, l0 := pollOne(t, cons)
	_, l1 := pollOne(t, cons)
	_, l2 := pollOne(t, cons)
	if got := string(first.Value); got != "value-0" {
		t.Fatalf("held record reads %q after two more polls, want value-0", got)
	}
	if st := cons.LeaseStats(); st.Active != 3 || st.Free != 0 || st.Bytes == 0 {
		t.Fatalf("three leases out: %+v", st)
	}
	l1.Release()
	l2.Release()
	l0.Release() // last in: the next poll that fetches draws this one
	if st := cons.LeaseStats(); st.Active != 0 || st.Free != 3 {
		t.Fatalf("all released: %+v", st)
	}
	// A poll that fetches swaps buffers with the lease it draws: the
	// fourth response is already in hand when l0 comes off the free list,
	// and l0's old bytes are what the fifth is read into.
	fourth, l3 := pollOne(t, cons)
	if l3 != l0 {
		t.Fatal("a poll with a free lease waiting made a new one")
	}
	fifth, l4 := pollOne(t, cons)
	if string(fourth.Value) != "value-3" || string(fifth.Value) != "value-4" || string(first.Value) != "value-4" {
		t.Fatalf("fourth, fifth and the released first read %q, %q, %q; want value-3, value-4 and value-4 again",
			fourth.Value, fifth.Value, first.Value)
	}
	if st := cons.LeaseStats(); st.Active != 2 || st.Free != 1 {
		t.Fatalf("two leases out again: %+v", st)
	}
	// The limit of Release's idempotence: l0 went out again as l3, so a
	// stale holder's second Release ends l3's borrow.
	l0.Release()
	if !l3.Released() {
		t.Fatal("stale release of a recycled lease was absorbed")
	}
	l4.Release()
}

// TestReleasedFetchBufferIsPoisoned: in check mode a released receive
// buffer reads 0xDB and is retired, so a view that outlives its batch
// fails the same way every time instead of reading the next fetch; and
// a second Release, which recycling cannot absorb, panics.
func TestReleasedFetchBufferIsPoisoned(t *testing.T) {
	broker.SetLeaseCheck(true)
	defer broker.SetLeaseCheck(false)
	c, p := leaseClient(t, 1)
	for i := 0; i < 3; i++ {
		if _, _, err := p.SendAt([]byte("key"), []byte(fmt.Sprintf("value-%d", i)), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	cons, _, err := c.NewGroupConsumer("g", "m")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()

	first, l0 := pollOne(t, cons)
	second, l1 := pollOne(t, cons)
	l1.Release()
	third, l2 := pollOne(t, cons)
	if string(first.Value) != "value-0" || string(third.Value) != "value-2" {
		t.Fatalf("held records read %q and %q", first.Value, third.Value)
	}
	if l2 == l1 {
		t.Fatal("check mode recycled a released lease")
	}
	l0.Release()
	poison := bytes.Repeat([]byte{0xDB}, len("value-0"))
	for what, b := range map[string][]byte{"first value": first.Value, "second value": second.Value, "first key": first.Key[:3]} {
		if !bytes.Equal(b, poison[:len(b)]) {
			t.Fatalf("%s reads %q after its release, want poison", what, b)
		}
	}
	if string(third.Value) != "value-2" {
		t.Fatalf("releasing other leases touched a held one: %q", third.Value)
	}
	if st := cons.LeaseStats(); st.Active != 1 || st.Free != 0 {
		t.Fatalf("two retired, one out: %+v", st)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Release of a pooled lease went unnoticed in check mode")
		}
		l2.Release()
	}()
	l0.Release()
}

// TestLeaseRecyclingHammer is two shards' worth of the serving
// pipeline's shape under the race detector: per shard an intake
// goroutine polls and hands each batch to a persist goroutine, which
// reads every value and releases while intake is already fetching into
// the buffers released before. A lease recycled while its records are
// still read is a data race here, a value that is not the one produced
// a failure, and the free list never outgrows the batches in flight.
func TestLeaseRecyclingHammer(t *testing.T) {
	const total, depth = 1500, 2
	c, p := leaseClient(t, 4)
	value := func(i int) []byte {
		return []byte(fmt.Sprintf("%d:%s", i, strings.Repeat(string(rune('a'+i%26)), 8+i%57)))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if _, _, err := p.SendAt([]byte{byte('a' + i%7)}, value(i), time.Time{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	type batch struct {
		recs  []broker.Record
		lease *broker.Lease
	}
	stop := make(chan struct{})
	drained := make(chan struct{}, 2)
	for shard := 0; shard < 2; shard++ {
		cons, _, err := c.NewGroupConsumer(fmt.Sprintf("g%d", shard), "m") // a group each: both read everything
		if err != nil {
			t.Fatal(err)
		}
		defer cons.Close()
		defer func() {
			// Out at once: depth queued, one being persisted, one intake holds.
			if st := cons.LeaseStats(); st.Active != 0 || st.Free > depth+2 {
				t.Errorf("after the drain: %+v, want none out and at most %d free", st, depth+2)
			}
		}()
		queue := make(chan batch, depth)
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(queue)
			for {
				recs, lease, err := cons.PollLeased(7, 20*time.Millisecond, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(recs) > 0 {
					queue <- batch{recs, lease}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		go func() {
			defer wg.Done()
			n := 0
			for b := range queue {
				for _, r := range b.recs {
					head, _, _ := bytes.Cut(r.Value, []byte(":"))
					if i, err := strconv.Atoi(string(head)); err != nil || !bytes.Equal(r.Value, value(i)) {
						t.Errorf("record %d/%d reads %q", r.Partition, r.Offset, r.Value)
					}
				}
				b.lease.Release()
				if n += len(b.recs); n == total {
					drained <- struct{}{}
				}
			}
		}()
	}
	for shard := 0; shard < 2; shard++ {
		select {
		case <-drained:
		case <-time.After(30 * time.Second):
			t.Error("a shard did not read every record")
		}
	}
	close(stop)
	wg.Wait()
}
