package docstore

import (
	"sync"
	"testing"
	"time"
)

// Read-after-write coherence regressions (ISSUE 7 audit): no read may
// serve deleted or stale documents after a mutating path returned.
// These pin delete-then-read against a cached partial, plus CreateIndex,
// which builds index shards under a cached aggregation partial.

// fieldValues reads one field across the documents matching conds, in
// insertion order, skipping documents that lack it.
func fieldValues(c *Collection, conds []Cond, field string) ([]any, error) {
	docs, err := findDocs(c, conds...)
	var out []any
	for _, d := range docs {
		if v, ok := d[field]; ok {
			out = append(out, v)
		}
	}
	return out, err
}

// tailDocs reads the n most recent documents back through TailRows: one
// Doc per row, holding _id and those of the named fields it carries.
func tailDocs(c *Collection, n int, fields ...string) []Doc {
	rows := c.NewRows(fields...)
	c.TailRows(n, rows)
	out := make([]Doc, rows.Len())
	for i := range out {
		out[i] = Doc{"_id": rows.ids[i]}
		for j, cell := range rows.Row(i) {
			if cell.Present() {
				out[i][fields[j]] = cell.value()
			}
		}
	}
	return out
}

// TestCoherenceDeleteThenFieldValues: prime a per-device cached group
// count, delete some of its documents, and require the next ask — a
// histogram of the device, and a plain scan of the values — to reflect
// the deletion: a Delete that failed to invalidate would keep serving
// the deleted docs' counts from the partial.
func TestCoherenceDeleteThenFieldValues(t *testing.T) {
	c := optimisticCollection(t, 2)
	for i := 0; i < 40; i++ {
		c.Insert(Doc{"deviceMac": "mac-a", "ts": float64(i), "tens": i / 10})
	}
	filter := []Cond{eq("deviceMac", "mac-a")}
	groupCountsWhere(c, filter, "tens")
	before, err := groupCountsWhere(c, filter, "tens") // served from the partial
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 4 {
		t.Fatalf("prime read: %d groups", len(before))
	}
	n, err := c.deleteWhere([]Cond{eq("deviceMac", "mac-a"), cond("ts", "$gte", 30.0)})
	if err != nil || n != 10 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	groups, err := groupCountsWhere(c, filter, "tens")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("%d groups after delete, want 3 (stale partial?): %v", len(groups), groups)
	}
	bars, err := bucketCounts(c, [][]Cond{{{Field: "deviceMac", Op: "$eq", Value: String("mac-a")}}}, Bucket{Field: "ts", Width: 10})
	if err != nil || len(bars[0]) != 3 {
		t.Fatalf("histogram after delete: %v, %v; want 3 bars", bars, err)
	}
	after, err := fieldValues(c, filter, "ts")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 30 {
		t.Fatalf("scan served %d values after delete, want 30", len(after))
	}
	for _, v := range after {
		if v.(float64) >= 30.0 {
			t.Fatalf("scan served deleted doc's value %v", v)
		}
	}
}

// TestCoherenceIndexDDL: CreateIndex builds index shards under the
// write lock but moves no row, so a cached partial stays valid across
// it — the standing query is served, not recomputed — while what it
// folds next comes through the new index and must still be right.
func TestCoherenceIndexDDL(t *testing.T) {
	c := optimisticCollection(t, 2)
	for i := 0; i < 20; i++ {
		c.Insert(Doc{"deviceMac": "mac-a", "ts": float64(i), "zip": "1011"})
	}
	filter := []Cond{eq("zip", "1011")}
	ask := func(want int) {
		t.Helper()
		got, err := groupCountsWhere(c, filter, "deviceMac")
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
	if st := c.AggPartialStats(); st.Recomputed != before.Recomputed {
		t.Fatalf("index DDL cost %d recomputed partials, want 0", st.Recomputed-before.Recomputed)
	}
	// Reads after the DDL still observe current data.
	got, err := fieldValues(c, []Cond{eq("deviceMac", "mac-a")}, "ts")
	if err != nil || len(got) != 22 {
		t.Fatalf("scan after DDL: %d values err=%v", len(got), err)
	}
}

// TestCoherenceHammer interleaves optimistic readers with every
// mutating path under -race: any snapshot served at a version its
// partition has moved past shows up as a count that can't match the
// locked ground truth.
func TestCoherenceHammer(t *testing.T) {
	c := optimisticCollection(t, 2)
	for i := 0; i < 50; i++ {
		c.Insert(Doc{"deviceMac": "mac-a", "ts": float64(i)})
	}
	c.SetRetention("ts", time.Hour)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: churn inserts, deletes and retention prunes on one device
		defer wg.Done()
		i := 50
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Insert(Doc{"deviceMac": "mac-a", "ts": float64(i)})
			if i%2 == 0 {
				c.deleteWhere([]Cond{eq("ts", float64(i-40))})
			}
			c.PruneExpired(time.Unix(int64(i-45), 0).Add(time.Hour)) // what the deletes left below ts i-45
			i++
		}
	}()
	filter := []Cond{eq("deviceMac", "mac-a")}
	for r := 0; r < 2000; r++ {
		vals, err := fieldValues(c, filter, "ts")
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
		tail := tailDocs(c, 8, "ts")
		for j := 1; j < len(tail); j++ {
			if tail[j]["_id"].(int64) <= tail[j-1]["_id"].(int64) {
				t.Fatalf("TailRows out of insertion order: %v", tail)
			}
		}
	}
	close(stop)
	wg.Wait()
}
