//go:build !race

package broker

import (
	"testing"
	"time"
)

const raceBuild = false

// TestParkedPollLeasedIdleAllocs: a leased poll that parks for its
// whole timeout and finds nothing allocates nothing — no lease, no
// copy of the assignment, no timer (a lease plus a slice and a map per
// slice slept, before the wait became a park on the wake channel).
func TestParkedPollLeasedIdleAllocs(t *testing.T) {
	_, _, c := eventConsumer(t, 4)
	dst := make([]Record, 0, 512)
	idle := func() {
		out, lease, err := c.PollLeased(512, time.Millisecond, dst)
		if err != nil || len(out) != 0 || lease == nil || !lease.Released() {
			t.Fatalf("idle leased poll = %d records, lease %v, err %v", len(out), lease, err)
		}
	}
	idle() // the consumer's deadline timer
	if allocs := testing.AllocsPerRun(20, idle); allocs != 0 {
		t.Fatalf("idle PollLeased over 4 partitions: %.1f allocations per poll, want 0", allocs)
	}
	if n := c.LeaseStats().Active; n != 0 {
		t.Fatalf("%d leases outstanding after idle polls", n)
	}
}

// TestPollLeasedAllocBudget: a leased poll that returns records draws
// its lease from the consumer's free list, so poll and Release together
// allocate nothing once one lease has been round (a Lease per poll that
// fetched, before the list).
func TestPollLeasedAllocBudget(t *testing.T) {
	_, topic, c := eventConsumer(t, 4)
	p := NewProducer(topic)
	for i := 0; i < 300; i++ {
		if _, _, err := p.SendAt([]byte{byte(i)}, make([]byte, 300), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]Record, 0, 16)
	one := func() {
		out, lease, err := c.PollLeased(1, time.Second, dst)
		if err != nil || len(out) != 1 {
			t.Fatalf("leased poll = %d records, %v; want 1", len(out), err)
		}
		lease.Release()
	}
	one() // the lease
	if allocs := testing.AllocsPerRun(200, one); allocs != 0 {
		t.Fatalf("PollLeased of one record + Release: %.2f allocations, want 0", allocs)
	}
	if st := c.LeaseStats(); st.Active != 0 || st.Free != 1 {
		t.Fatalf("lease stats after the run: %+v, want one lease, free", st)
	}
}
