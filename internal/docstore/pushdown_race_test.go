package docstore

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestPushdownConcurrentHammer runs the store's asks against a durable
// store while writers insert (two of them, out of id order) and delete,
// and a maintenance goroutine checkpoints and prunes expired documents.
// Run under -race (the repo's `make test` does), it checks the cached
// group partials — four readers share their signatures, each advancing
// what the others advance and what the writers invalidate — and the
// per-partition histogram and scan visits for data races, and asserts
// the invariants a torn partial would break:
//
//   - every document goes in twice, identically, in one InsertMany, so
//     any filter deletes both copies or neither and every count in every
//     answer — group, bar or scan — is even;
//   - the TopDevices pipeline's groups sorted by count with at most 10;
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
	// twice draws one document and returns it twice.
	twice := func(r *rand.Rand, expired bool) []Doc {
		ts := now
		if expired {
			ts = now - 7200 // beyond the 1h window: prune fodder
		}
		d := Doc{
			"deviceMac": fmt.Sprintf("mac-%02d", r.Intn(12)),
			"zip":       fmt.Sprintf("%04d", 8000+r.Intn(6)),
			"duration":  float64(r.Intn(300)),
			"ts":        ts,
		}
		return []Doc{d, maps.Clone(d)}
	}
	seedR := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		c.InsertMany(twice(seedR, i%5 == 0))
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
				var batch []Doc
				for j := 0; j < 4; j++ {
					batch = append(batch, twice(r, r.Intn(6) == 0)...)
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
			f := []Cond{eq("zip", fmt.Sprintf("%04d", 8000+r.Intn(6))), cond("duration", "$lt", float64(r.Intn(40)))}
			if _, err := c.deleteWhere(f); err != nil {
				report(fmt.Errorf("delete: %w", err))
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

	even := func(what string, n int, of any) bool {
		if n%2 != 0 {
			report(fmt.Errorf("torn %s: odd count %d for %v", what, n, of))
			return false
		}
		return true
	}
	reader := func(seed int64) {
		defer wg.Done()
		r := rand.New(rand.NewSource(seed))
		for {
			select {
			case <-stop:
				return
			default:
			}
			zip := fmt.Sprintf("%04d", 8000+r.Intn(6))
			switch r.Intn(4) {
			case 0: // TopDevices: bounded, sorted by count, every count even
				docs, err := c.Aggregate(nil, countGroup("deviceMac"), SortStage{Field: "-n"}, Limit{N: 10})
				if err != nil {
					report(fmt.Errorf("group aggregate: %w", err))
					return
				}
				if len(docs) > 10 {
					report(fmt.Errorf("top devices returned %d groups, limit 10", len(docs)))
					return
				}
				for i, d := range docs {
					if !even("group", d["n"].(int), d["deviceMac"]) {
						return
					}
					if i > 0 && docs[i-1]["n"].(int) < d["n"].(int) {
						report(fmt.Errorf("top devices out of order at %d: %v before %v", i, docs[i-1], d))
						return
					}
				}
			case 1: // a group count behind an indexable-looking filter
				groups, err := groupCountsWhere(c, []Cond{eq("zip", zip)}, "deviceMac")
				if err != nil {
					report(fmt.Errorf("GroupCounts: %w", err))
					return
				}
				for _, g := range groups {
					if !even("group", g.Count, g.Key.Str()) {
						return
					}
				}
			case 2: // a histogram sweep over devices: every bar positive and even
				conds := [][]Cond{
					{{Field: "deviceMac", Op: "$eq", Value: String(fmt.Sprintf("mac-%02d", r.Intn(12)))}},
					{{Field: "deviceMac", Op: "$eq", Value: String(fmt.Sprintf("mac-%02d", r.Intn(12)))}, {Field: "ts", Op: "$gte", Value: Float(now - 3600)}},
					{{Field: "zip", Op: "$eq", Value: String(zip)}},
				}
				err := c.BucketCounts(conds, Bucket{Field: "duration", Origin: 0, Width: 50}, func(i int, bars []BucketCount) {
					for _, b := range bars {
						if b.Count <= 0 {
							report(fmt.Errorf("bar not positive: %v", b))
						}
						even("bar", b.Count, conds[i])
					}
				})
				if err != nil {
					report(fmt.Errorf("BucketCounts: %w", err))
					return
				}
			default: // a scan of one device
				docs, err := findDocs(c, eq("deviceMac", fmt.Sprintf("mac-%02d", r.Intn(12))))
				if err != nil {
					report(fmt.Errorf("scan: %w", err))
					return
				}
				if !even("scan", len(docs), "one device") {
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

	// Quiesced: the pushdown and the reference must agree exactly.
	for _, pr := range []probe{
		{stages: []Stage{countGroup("deviceMac"), SortStage{Field: "-n"}, Limit{N: 25}}},
		{filter: []Cond{eq("zip", "8002")}, stages: []Stage{countGroup("deviceMac")}},
		{conds: [][]Cond{nil, {{Field: "zip", Op: "$eq", Value: String("8003")}}}, bucket: Bucket{Field: "duration", Origin: 0, Width: 25}},
		{filter: []Cond{cond("duration", "$lt", 40.0)}, stages: []Stage{countGroup("zip")}},
	} {
		runBoth(t, c, pr, "post-hammer")
	}
}
