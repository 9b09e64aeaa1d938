package docstore

import (
	"fmt"
	"maps"
	"reflect"
	"sync"
	"testing"
)

func optimisticCollection(t *testing.T, parts int) *Collection {
	t.Helper()
	c, err := NewDBWithPartitions(parts).CollectionWithShardKey("alarms", "deviceMac")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOptimisticReadsSeeWrites drives the snapshot-cache protocol
// through its lifecycle: a repeated query is served from the published
// snapshot, any write invalidates it, and the next read observes the
// write — staleness is bounded by the version check, not by time.
func TestOptimisticReadsSeeWrites(t *testing.T) {
	c := optimisticCollection(t, 2)
	for i := 0; i < 60; i++ {
		c.Insert(Doc{"deviceMac": fmt.Sprintf("mac-%d", i%3), "ts": float64(i)})
	}
	filter := []Cond{eq("deviceMac", "mac-1")}

	first, err := fieldValues(c, filter, "ts")
	if err != nil {
		t.Fatal(err)
	}
	again, err := fieldValues(c, filter, "ts")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("repeat read differs: %v vs %v", first, again)
	}

	// A write to the same partition must invalidate the snapshot.
	c.Insert(Doc{"deviceMac": "mac-1", "ts": 999.0})
	after, err := fieldValues(c, filter, "ts")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(first)+1 {
		t.Fatalf("read after write: %d values, want %d", len(after), len(first)+1)
	}

	// Same protocol for Tail.
	t1 := tailDocs(c, 10, "deviceMac", "ts")
	t2 := tailDocs(c, 10, "deviceMac", "ts")
	if !reflect.DeepEqual(t1, t2) {
		t.Fatal("repeated Tail differs")
	}
	c.Insert(Doc{"deviceMac": "mac-2", "ts": 1000.0})
	t3 := tailDocs(c, 10, "deviceMac", "ts")
	last := t3[len(t3)-1]
	if last["ts"].(float64) != 1000.0 {
		t.Fatalf("Tail after write misses the new doc: %v", last)
	}

	// And for the lock-free Len.
	if n, _ := count(c); n != c.Len() {
		t.Fatalf("Len %d != Count %d", c.Len(), n)
	}
	c.deleteWhere([]Cond{eq("deviceMac", "mac-0")})
	if n, _ := count(c); n != c.Len() {
		t.Fatalf("after delete: Len %d != Count %d", c.Len(), n)
	}
}

// TestCachedResultsAreIsolated: callers own what reads return them —
// mutating a returned slice or document must never corrupt the
// published snapshot that later calls are served from.
func TestCachedResultsAreIsolated(t *testing.T) {
	c := optimisticCollection(t, 2)
	for i := 0; i < 20; i++ {
		c.Insert(Doc{"deviceMac": "mac-x", "ts": float64(i)})
	}
	filter := []Cond{eq("deviceMac", "mac-x")}
	// A group's key value lives on in the partition's cached partial.
	byTS := countGroup("ts")
	got, err := c.Aggregate(filter, byTS)
	if err != nil || len(got) != 20 {
		t.Fatalf("%d groups, %v; want 20", len(got), err)
	}
	want := make([]Doc, len(got))
	for i, d := range got {
		want[i] = maps.Clone(d)
		d["ts"] = "scribbled"
		d["n"] = -1
	}
	again, err := c.Aggregate(filter, byTS)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("cache corrupted by caller mutation: %v", again)
	}

	tail := tailDocs(c, 5, "ts")
	for _, d := range tail {
		d["ts"] = "scribbled"
	}
	for _, d := range tailDocs(c, 5, "ts") {
		if _, ok := d["ts"].(float64); !ok {
			t.Fatalf("tail snapshot corrupted by caller mutation: %v", d)
		}
	}
}

// TestOptimisticReadHammer races the read paths against writers on the
// same partitions — the -race target for the cached partials: four
// readers keep asking one group count, each advancing the partials the
// others are advancing, while the writers' inserts move the tail and
// their deletes invalidate. Reads must always return internally
// consistent results (never an error, never a torn count below what
// was durably inserted before the reads began, and for the documents no
// writer touches, exactly their count).
func TestOptimisticReadHammer(t *testing.T) {
	c := optimisticCollection(t, 4)
	const devices = 8
	mac := func(i int) string { return fmt.Sprintf("mac-%d", i%devices) }
	// A durable floor of documents that no writer deletes.
	for i := 0; i < 200; i++ {
		c.Insert(Doc{"deviceMac": mac(i), "kind": "keep", "ts": float64(i)})
	}
	floor := make(map[string]int)
	for i := 0; i < 200; i++ {
		floor[mac(i)]++
	}

	var wg sync.WaitGroup
	// Writers churn temporary docs, invalidating snapshots constantly.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				c.Insert(Doc{"deviceMac": mac(i), "kind": "temp", "ts": float64(1000 + i)})
				if i%3 == 0 {
					if _, err := c.deleteWhere([]Cond{eq("kind", "temp"), eq("deviceMac", mac(i))}); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	// Optimistic readers on the same keys.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m := mac(i + r)
				vals, err := fieldValues(c, []Cond{eq("deviceMac", m)}, "ts")
				if err != nil {
					t.Errorf("fieldvalues: %v", err)
					return
				}
				if len(vals) < floor[m] {
					t.Errorf("torn read: %s has %d values, floor %d", m, len(vals), floor[m])
					return
				}
				if got := tailDocs(c, 7, "ts"); len(got) > 7*len(c.parts) {
					t.Errorf("tail returned %d docs for n=7", len(got))
					return
				}
				if c.Len() < 200 {
					t.Errorf("len %d below durable floor 200", c.Len())
					return
				}
				kept, err := count(c, eq("kind", "keep"))
				if err != nil {
					t.Errorf("find: %v", err)
					return
				}
				if kept != 200 {
					t.Errorf("torn scan: %d kept docs, want 200", kept)
					return
				}
			}
		}(r)
	}
	// Readers of one signature, advancing it together.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				kept, err := groupCountsWhere(c, []Cond{eq("kind", "keep")}, "deviceMac")
				if err != nil || len(kept) != devices {
					t.Errorf("groupcounts: %d groups, %v", len(kept), err)
					return
				}
				for _, g := range kept {
					if g.Count != floor[g.Key.Str()] {
						t.Errorf("torn partial: %s counts %d kept docs, want %d", g.Key.Str(), g.Count, floor[g.Key.Str()])
						return
					}
				}
				all, err := c.GroupCounts("deviceMac", nil)
				if err != nil {
					t.Errorf("groupcounts: %v", err)
					return
				}
				for _, g := range all {
					if g.Count < floor[g.Key.Str()] {
						t.Errorf("torn partial: %s counts %d docs, floor %d", g.Key.Str(), g.Count, floor[g.Key.Str()])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// Whatever the schedule did, one insert then an ask of the cached
	// signature advances a partial, and one delete then an ask
	// recomputes one.
	if _, err := c.GroupCounts("deviceMac", nil); err != nil {
		t.Fatal(err)
	}
	before := c.AggPartialStats()
	c.Insert(Doc{"deviceMac": mac(0), "kind": "temp", "ts": float64(5000)})
	if _, err := c.GroupCounts("deviceMac", nil); err != nil {
		t.Fatal(err)
	}
	inserted := c.AggPartialStats()
	if inserted.Advanced <= before.Advanced {
		t.Errorf("an insert then an ask did not advance a partial: %+v then %+v", before, inserted)
	}
	if n, err := c.deleteWhere([]Cond{eq("kind", "temp"), eq("ts", float64(5000))}); err != nil || n != 1 {
		t.Fatalf("delete: %d docs, %v", n, err)
	}
	if _, err := c.GroupCounts("deviceMac", nil); err != nil {
		t.Fatal(err)
	}
	if deleted := c.AggPartialStats(); deleted.Recomputed <= inserted.Recomputed {
		t.Errorf("a delete then an ask did not recompute a partial: %+v then %+v", inserted, deleted)
	}
	if st := c.AggPartialStats(); st.Advanced == 0 || st.Recomputed == 0 {
		t.Errorf("the hammer never advanced or never invalidated a partial: %+v", st)
	}

	// Settle and check the caches converge on the final truth.
	if _, err := c.deleteWhere([]Cond{eq("kind", "temp")}); err != nil {
		t.Fatal(err)
	}
	settled, err := c.GroupCounts("deviceMac", nil)
	if err != nil || len(settled) != devices {
		t.Fatalf("settled group count: %d groups, %v", len(settled), err)
	}
	for _, g := range settled {
		if g.Count != floor[g.Key.Str()] {
			t.Fatalf("%s: %d docs after settle, want %d", g.Key.Str(), g.Count, floor[g.Key.Str()])
		}
	}
	for i := 0; i < devices; i++ {
		vals, err := fieldValues(c, []Cond{eq("deviceMac", mac(i))}, "ts")
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != floor[mac(i)] {
			t.Fatalf("%s: %d values after settle, want %d", mac(i), len(vals), floor[mac(i)])
		}
	}
	if n, _ := count(c); n != c.Len() || n != 200 {
		t.Fatalf("final Len %d / Count %d, want 200", c.Len(), n)
	}
}
