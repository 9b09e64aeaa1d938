package docstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestPushdownConcurrentHammer runs pushdown aggregations against a
// durable store while writers insert (two of them, out of id order) and delete, and a
// maintenance goroutine checkpoints and prunes expired documents.
// Run under -race (the repo's `make test` does), it checks the cached
// partials — four readers share the group and bucket signatures, each
// advancing what the others advance and what the writers invalidate —
// and the per-partition partial scans for data races, and asserts the
// invariants a torn partial would break:
//
//   - count ≡ sum over a field that is 1.0 in every document — both
//     are computed under the same partition lock, so they can never
//     disagree, no matter how the partitions interleave with writers;
//   - top-K results sorted by (key, id) with at most K rows;
//   - bucket cells strictly positive;
//   - once writers stop, pushdown ≡ streaming exactly.
func TestPushdownConcurrentHammer(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, DurableOptions{
		Partitions:         4,
		SyncInterval:       5 * time.Millisecond,
		CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := db.CollectionWithShardKey("alarms", "deviceMac")
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetention("ts", time.Hour)

	now := float64(time.Now().UnixNano()) / 1e9
	mkDoc := func(r *rand.Rand, expired bool) Doc {
		ts := now
		if expired {
			ts = now - 7200 // beyond the 1h window: prune fodder
		}
		return Doc{
			"deviceMac": fmt.Sprintf("mac-%02d", r.Intn(12)),
			"zip":       fmt.Sprintf("%04d", 8000+r.Intn(6)),
			"duration":  float64(r.Intn(300)),
			"v":         1.0,
			"ts":        ts,
		}
	}
	seedR := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		c.Insert(mkDoc(seedR, i%5 == 0))
	}

	const writerRounds = 120
	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan error, 16)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}

	// Two inserters: their batches' id ranges and lock acquisitions
	// interleave, so partitions re-sort below the cached partials' marks.
	for _, seed := range []int64{21, 31} {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < writerRounds; i++ {
				batch := make([]Doc, 8)
				for j := range batch {
					batch[j] = mkDoc(r, r.Intn(6) == 0)
				}
				c.InsertMany(batch)
			}
		}(seed)
	}
	wg.Add(1)
	go func() { // deleter
		defer wg.Done()
		r := rand.New(rand.NewSource(41))
		for i := 0; i < writerRounds/3; i++ {
			f := Doc{
				"zip":      fmt.Sprintf("%04d", 8000+r.Intn(6)),
				"duration": map[string]any{"$lt": float64(r.Intn(40))},
			}
			if _, err := c.Delete(f); err != nil {
				report(fmt.Errorf("Delete: %w", err))
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // checkpoint + retention pruning
		defer wg.Done()
		for i := 0; i < 12; i++ {
			if err := db.Checkpoint(); err != nil {
				report(fmt.Errorf("Checkpoint: %w", err))
				return
			}
			if _, err := c.PruneExpired(time.Now()); err != nil {
				report(fmt.Errorf("PruneExpired: %w", err))
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	reader := func(seed int64) {
		defer wg.Done()
		r := rand.New(rand.NewSource(seed))
		for {
			select {
			case <-stop:
				return
			default:
			}
			switch r.Intn(4) {
			case 0: // group: count must equal the sum of an all-ones field
				docs, err := c.Aggregate(nil, Group{
					By:   []string{"deviceMac"},
					Accs: map[string]Accumulator{"n": {Op: "count"}, "s": {Op: "sum", Field: "v"}},
				})
				if err != nil {
					report(fmt.Errorf("group aggregate: %w", err))
					return
				}
				for _, d := range docs {
					if n, s := d["n"].(int), d["s"].(float64); float64(n) != s {
						report(fmt.Errorf("torn group partial: count=%d sum=%v for %v", n, s, d["deviceMac"]))
						return
					}
				}
			case 1: // top-K: bounded and sorted by (duration desc, id asc)
				docs, err := c.Aggregate(nil, SortStage{Field: "-duration"}, Limit{N: 10})
				if err != nil {
					report(fmt.Errorf("topk aggregate: %w", err))
					return
				}
				if len(docs) > 10 {
					report(fmt.Errorf("topk returned %d docs, limit 10", len(docs)))
					return
				}
				for i := 1; i < len(docs); i++ {
					cmp := compareValues(docs[i-1]["duration"], docs[i]["duration"])
					if cmp < 0 || (cmp == 0 && docs[i-1]["_id"].(int64) > docs[i]["_id"].(int64)) {
						report(fmt.Errorf("topk out of order at %d: %v before %v", i, docs[i-1], docs[i]))
						return
					}
				}
			case 2: // bucket: every emitted cell is positive
				docs, err := c.Aggregate(Doc{"zip": fmt.Sprintf("%04d", 8000+r.Intn(6))},
					Bucket{Field: "duration", Origin: 0, Width: 50})
				if err != nil {
					report(fmt.Errorf("bucket aggregate: %w", err))
					return
				}
				for _, d := range docs {
					if d["count"].(int) <= 0 {
						report(fmt.Errorf("bucket cell not positive: %v", d))
						return
					}
				}
			default: // batched multi-filter sweep
				filters := []Doc{
					{"deviceMac": fmt.Sprintf("mac-%02d", r.Intn(12))},
					{"deviceMac": fmt.Sprintf("mac-%02d", r.Intn(12))},
				}
				if _, err := c.AggregateMulti(filters,
					Bucket{Field: "ts", Origin: now - 7200, Width: 600}); err != nil {
					report(fmt.Errorf("AggregateMulti: %w", err))
					return
				}
			}
		}
	}
	wg.Add(4)
	for _, seed := range []int64{51, 61, 71, 81} {
		go reader(seed)
	}

	// Writers run a fixed amount of work; readers spin through a short
	// mixed-load window and are then released. A goroutine that hit an
	// invariant violation exits early and the error surfaces after the
	// join.
	go func() {
		time.Sleep(150 * time.Millisecond)
		close(stop)
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("hammer did not quiesce within 30s")
	}
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}

	// Quiesced: the planner and the oracle must agree exactly.
	for _, probe := range [][]Stage{
		{Group{By: []string{"deviceMac"}, Accs: map[string]Accumulator{
			"n": {Op: "count"}, "s": {Op: "sum", Field: "v"},
			"lo": {Op: "min", Field: "duration"}, "hi": {Op: "max", Field: "duration"}}}},
		{SortStage{Field: "-duration"}, Limit{N: 25}},
		{Bucket{Field: "duration", Origin: 0, Width: 25}},
		{Limit{N: 40}, Match{Filter: Doc{"verified": true}}},
	} {
		runBoth(t, c, nil, probe, "post-hammer")
	}
}
