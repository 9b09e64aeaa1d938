package docstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestRaceHammer drives every mutating and reading operation across
// goroutines on overlapping keys. It is primarily a `-race` target:
// the final assertions check the deterministic outcome (counts) and
// that index shards agree with full scans after the dust settles.
func TestRaceHammer(t *testing.T) {
	db := NewDBWithPartitions(4)
	c, err := db.CollectionWithShardKey("alarms", "deviceMac")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex("zip"); err != nil {
		t.Fatal(err)
	}
	c.SetRetention("exp", time.Hour) // only the temporary docs carry exp

	const (
		insertWorkers = 4
		insertsEach   = 200
		batchWorkers  = 2
		batchesEach   = 10
		batchSize     = 25
		zips          = 8
		devices       = 16
	)
	zip := func(i int) string { return fmt.Sprintf("%04d", 8000+i%zips) }
	mac := func(i int) string { return fmt.Sprintf("mac-%02d", i%devices) }

	var wg sync.WaitGroup
	// Single-document inserters of permanent docs.
	for w := 0; w < insertWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < insertsEach; i++ {
				c.Insert(Doc{
					"deviceMac": mac(w*insertsEach + i),
					"zip":       zip(i),
					"kind":      "keep",
					"n":         i,
				})
			}
		}(w)
	}
	// Batch inserters of temporary docs the deleters race to remove.
	for w := 0; w < batchWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batchesEach; b++ {
				batch := make([]Doc, batchSize)
				for i := range batch {
					batch[i] = Doc{
						"deviceMac": mac(b*batchSize + i),
						"zip":       zip(i),
						"kind":      "temp",
						"exp":       1.0,
					}
				}
				c.InsertMany(batch)
			}
		}(w)
	}
	// Pruners age the temporary docs out through the retention path.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.PruneExpired(time.Now()); err != nil {
					t.Errorf("prune: %v", err)
					return
				}
			}
		}()
	}
	// Deleters race the batch inserters for the temporary docs.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := c.Delete(Doc{"kind": "temp"}); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}()
	}
	// Readers: point lookups, scans, counts, histogam-style columns.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := c.Find(Doc{"zip": zip(i)}); err != nil {
					t.Errorf("find: %v", err)
					return
				}
				if _, err := count(c, Doc{"kind": "keep"}); err != nil {
					t.Errorf("count: %v", err)
					return
				}
				if _, err := c.GroupCounts(Doc{"deviceMac": mac(i)}, "kind"); err != nil {
					t.Errorf("groupcounts: %v", err)
					return
				}
				if _, err := get(c, int64(i)); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(w)
	}
	// Index DDL concurrent with everything above: both workers build
	// every index, one of each pair losing to ErrIndexExists.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, field := range []string{"kind", "n", "deviceMac", "exp"} {
				if err := c.CreateIndex(field); err != nil && !errors.Is(err, ErrIndexExists) {
					t.Errorf("create index: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// The temp docs are racy by design; clear the survivors so the
	// final state is deterministic.
	if _, err := c.Delete(Doc{"kind": "temp"}); err != nil {
		t.Fatal(err)
	}
	wantKeep := insertWorkers * insertsEach
	keep, err := count(c, Doc{"kind": "keep"})
	if err != nil {
		t.Fatal(err)
	}
	if keep != wantKeep {
		t.Errorf("keep count = %d, want %d", keep, wantKeep)
	}
	if c.Len() != wantKeep {
		t.Errorf("len = %d, want %d", c.Len(), wantKeep)
	}

	// Index and scan must agree for every zip: the planner only reads
	// top-level field conditions, so the $and-wrapped filter scans.
	for i := 0; i < zips; i++ {
		indexed, err := count(c, Doc{"zip": zip(i)})
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := count(c, Doc{"$and": []any{map[string]any{"zip": zip(i)}}})
		if err != nil {
			t.Fatal(err)
		}
		if indexed != scanned {
			t.Errorf("zip %s: indexed count %d != scan count %d", zip(i), indexed, scanned)
		}
	}
}

// TestInsertManyBatchesPartitionLocks checks the batched write path's
// contract: ids are assigned in input order and every doc is
// retrievable, including under concurrent batches.
func TestInsertManyConcurrentBatches(t *testing.T) {
	c := NewDBWithPartitions(4).Collection("x")
	const workers, batches, size = 4, 8, 32
	var wg sync.WaitGroup
	idsCh := make(chan []int64, workers*batches)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				docs := make([]Doc, size)
				for i := range docs {
					docs[i] = Doc{"w": w, "b": b, "i": i}
				}
				idsCh <- c.InsertMany(docs)
			}
		}(w)
	}
	wg.Wait()
	close(idsCh)
	seen := make(map[int64]bool)
	for ids := range idsCh {
		if len(ids) != size {
			t.Fatalf("batch returned %d ids", len(ids))
		}
		for j, id := range ids {
			if seen[id] {
				t.Fatalf("id %d assigned twice", id)
			}
			seen[id] = true
			if j > 0 && ids[j] != ids[j-1]+1 {
				t.Fatalf("batch ids not contiguous: %v", ids)
			}
			d, err := get(c, id)
			if err != nil {
				t.Fatalf("get %d: %v", id, err)
			}
			if d["i"].(int) != j {
				t.Fatalf("doc %d has i=%v, want %d", id, d["i"], j)
			}
		}
	}
	if c.Len() != workers*batches*size {
		t.Fatalf("len = %d, want %d", c.Len(), workers*batches*size)
	}
}

// TestShardKeySemantics pins the shard-key contract: routing
// co-locates a device's documents, equality queries prune to one
// partition but lose nothing, and a second CollectionWithShardKey with
// a different key is rejected.
func TestShardKeySemantics(t *testing.T) {
	db := NewDBWithPartitions(8)
	c, err := db.CollectionWithShardKey("alarms", "deviceMac")
	if err != nil {
		t.Fatal(err)
	}
	if c.shardKey != "deviceMac" || len(c.parts) != 8 {
		t.Fatalf("shardKey=%q partitions=%d", c.shardKey, len(c.parts))
	}
	if _, err := db.CollectionWithShardKey("alarms", "zip"); !errors.Is(err, ErrShardKeyMismatch) {
		t.Fatalf("mismatched shard key accepted: %v", err)
	}
	for i := 0; i < 200; i++ {
		c.Insert(Doc{"deviceMac": fmt.Sprintf("m%02d", i%10), "n": i})
	}
	// A doc missing the shard key still stores and scans fine.
	c.Insert(Doc{"n": -1})
	for i := 0; i < 10; i++ {
		m := fmt.Sprintf("m%02d", i)
		got, err := c.Find(Doc{"deviceMac": m})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 20 {
			t.Fatalf("device %s: pruned find returned %d, want 20", m, len(got))
		}
	}
	if n, _ := count(c, Doc{}); n != 201 {
		t.Fatalf("total = %d, want 201", n)
	}
}
