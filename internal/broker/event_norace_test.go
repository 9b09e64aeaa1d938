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
	if n := c.ActiveLeases(); n != 0 {
		t.Fatalf("%d leases outstanding after idle polls", n)
	}
}
