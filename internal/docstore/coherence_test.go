package docstore

import (
	"fmt"
	"sync"
	"testing"
)

// Read-after-write coherence regressions (ISSUE 7 audit): no read may
// serve deleted or stale documents after a mutating path returned.
// These pin the two interleavings the audit was asked about —
// update-then-Tail and delete-then-FieldValues — plus the DDL paths
// (CreateIndex/DropIndex), which rewrite index shards under a cached
// aggregation partial.

// TestCoherenceUpdateThenTail: prime the tail snapshot, update a
// document inside the cached window, and require the very next Tail
// to serve the updated value — an Update that failed to bump the
// partition seq would hand back the stale cached tail.
func TestCoherenceUpdateThenTail(t *testing.T) {
	c := optimisticCollection(t, 2)
	for i := 0; i < 30; i++ {
		c.Insert(Doc{"deviceMac": fmt.Sprintf("mac-%d", i%2), "ts": float64(i), "verdict": 0})
	}
	// Two identical reads: the second is served from the published
	// snapshot (same version), which is the state under test.
	c.Tail(10)
	before := c.Tail(10)
	target := before[len(before)-1]["ts"].(float64)

	n, err := c.Update(Doc{"ts": target}, Doc{"verdict": 1})
	if err != nil || n != 1 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	after := c.Tail(10)
	for _, d := range after {
		if d["ts"].(float64) == target && d["verdict"] != 1 {
			t.Fatalf("Tail served stale pre-update doc: %v", d)
		}
	}
	// UpdateMany must invalidate identically.
	c.Tail(10)
	if _, err := c.UpdateMany([]UpdateOp{{Filter: Doc{"ts": target}, Set: Doc{"verdict": 2}}}); err != nil {
		t.Fatal(err)
	}
	for _, d := range c.Tail(10) {
		if d["ts"].(float64) == target && d["verdict"] != 2 {
			t.Fatalf("Tail served stale doc after UpdateMany: %v", d)
		}
	}
}

// TestCoherenceDeleteThenFieldValues: prime a per-device field-values
// snapshot, delete some of its documents, and require the next read
// to reflect the deletion — a Delete outside the seq discipline would
// keep serving the deleted docs' values from the cache.
func TestCoherenceDeleteThenFieldValues(t *testing.T) {
	c := optimisticCollection(t, 2)
	for i := 0; i < 40; i++ {
		c.Insert(Doc{"deviceMac": "mac-a", "ts": float64(i)})
	}
	filter := Doc{"deviceMac": "mac-a"}
	c.FieldValues(filter, "ts")
	before, err := c.FieldValues(filter, "ts") // snapshot-served
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 40 {
		t.Fatalf("prime read: %d values", len(before))
	}
	n, err := c.Delete(Doc{"deviceMac": "mac-a", "ts": map[string]any{"$gte": 30.0}})
	if err != nil || n != 10 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	after, err := c.FieldValues(filter, "ts")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 30 {
		t.Fatalf("FieldValues served %d values after delete, want 30 (stale snapshot?)", len(after))
	}
	for _, v := range after {
		if v.(float64) >= 30.0 {
			t.Fatalf("FieldValues served deleted doc's value %v", v)
		}
	}
}

// TestCoherenceIndexDDL: CreateIndex and DropIndex rebuild index
// shards under the write lock but move no row, so a cached partial
// stays valid across them — the standing query is served, not
// recomputed — while what it folds next comes through the new index
// (or, once dropped, without it) and must still be right.
func TestCoherenceIndexDDL(t *testing.T) {
	c := optimisticCollection(t, 2)
	for i := 0; i < 20; i++ {
		c.Insert(Doc{"deviceMac": "mac-a", "ts": float64(i), "zip": "1011"})
	}
	filter := Doc{"zip": "1011"}
	ask := func(want int) {
		t.Helper()
		got, err := c.GroupCounts(filter, "deviceMac")
		if err != nil || len(got) != 1 || got[0].Count != want {
			t.Fatalf("GroupCounts = %v, %v; want one group of %d", got, err, want)
		}
	}
	ask(20)
	before := c.AggPartialStats()
	if err := c.CreateIndex("zip"); err != nil {
		t.Fatal(err)
	}
	ask(20)
	c.Insert(Doc{"deviceMac": "mac-a", "ts": 20.0, "zip": "1011"})
	c.Insert(Doc{"deviceMac": "mac-a", "ts": 21.0, "zip": "2022"})
	ask(21) // the advance reads the index's posting list from the mark on
	if err := c.DropIndex("zip"); err != nil {
		t.Fatal(err)
	}
	c.Insert(Doc{"deviceMac": "mac-a", "ts": 22.0, "zip": "1011"})
	ask(22)
	if st := c.AggPartialStats(); st.Recomputed != before.Recomputed {
		t.Fatalf("index DDL cost %d recomputed partials, want 0", st.Recomputed-before.Recomputed)
	}
	// Reads after the DDL still observe current data.
	got, err := c.FieldValues(Doc{"deviceMac": "mac-a"}, "ts")
	if err != nil || len(got) != 23 {
		t.Fatalf("FieldValues after DDL: %d values err=%v", len(got), err)
	}
}

// TestCoherenceHammer interleaves optimistic readers with every
// mutating path under -race: any snapshot served at a version its
// partition has moved past shows up as a count that can't match the
// locked ground truth.
func TestCoherenceHammer(t *testing.T) {
	c := optimisticCollection(t, 2)
	for i := 0; i < 50; i++ {
		c.Insert(Doc{"deviceMac": "mac-a", "ts": float64(i), "live": true})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: churn updates and deletes on one device
		defer wg.Done()
		i := 50
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Insert(Doc{"deviceMac": "mac-a", "ts": float64(i), "live": true})
			c.Update(Doc{"ts": float64(i - 25)}, Doc{"live": false})
			c.Delete(Doc{"ts": float64(i - 40)})
			i++
		}
	}()
	filter := Doc{"deviceMac": "mac-a"}
	for r := 0; r < 2000; r++ {
		vals, err := c.FieldValues(filter, "ts")
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[float64]bool, len(vals))
		for _, v := range vals {
			ts := v.(float64)
			if seen[ts] {
				t.Fatalf("duplicate value %v served — torn snapshot", ts)
			}
			seen[ts] = true
		}
		tail := c.Tail(8)
		for j := 1; j < len(tail); j++ {
			if tail[j]["_id"].(int64) <= tail[j-1]["_id"].(int64) {
				t.Fatalf("Tail out of insertion order: %v", tail)
			}
		}
	}
	close(stop)
	wg.Wait()
}
