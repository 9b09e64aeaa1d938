package docstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Regression: -0.0 and 0.0 compare equal, so they must route to the
// same partition — otherwise a doc stored under -0.0 is invisible to
// a pruned equality query for 0.0.
func TestNegativeZeroShardRouting(t *testing.T) {
	c, err := NewDBWithPartitions(3).CollectionWithShardKey("x", "v")
	if err != nil {
		t.Fatal(err)
	}
	c.Insert(Doc{"v": math.Copysign(0, -1), "tag": "neg"})
	c.Insert(Doc{"v": 0.0, "tag": "pos"})
	got, err := c.Find(Doc{"v": 0.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("equality query for 0.0 found %d docs, want 2", len(got))
	}
}

// genCorpus fills a collection with documents mixing the field shapes
// the filters below exercise: indexed strings, indexed numerics,
// bools, and a nested path.
func genCorpus(c *Collection, r *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		c.Insert(Doc{
			"deviceMac": fmt.Sprintf("mac-%02d", r.Intn(24)),
			"zip":       fmt.Sprintf("%04d", 8000+r.Intn(12)),
			"duration":  float64(r.Intn(500)),
			"verified":  r.Intn(2) == 0,
			"meta":      map[string]any{"sensor": fmt.Sprintf("s%d", r.Intn(4))},
		})
	}
}

// genFilter draws one filter from a small grammar covering the
// operators the index shards can serve plus ones forcing scans.
func genFilter(r *rand.Rand) Doc {
	switch r.Intn(7) {
	case 0:
		return Doc{"zip": fmt.Sprintf("%04d", 8000+r.Intn(12))}
	case 1:
		return Doc{"duration": map[string]any{"$eq": float64(r.Intn(500))}}
	case 2:
		lo := float64(r.Intn(400))
		return Doc{"duration": map[string]any{"$gte": lo, "$lt": lo + float64(1+r.Intn(150))}}
	case 3:
		return Doc{"duration": map[string]any{"$gt": float64(r.Intn(500))}}
	case 4:
		return Doc{
			"zip":      fmt.Sprintf("%04d", 8000+r.Intn(12)),
			"verified": r.Intn(2) == 0,
		}
	case 5:
		return Doc{"$or": []any{
			map[string]any{"zip": fmt.Sprintf("%04d", 8000+r.Intn(12))},
			map[string]any{"duration": map[string]any{"$lt": float64(r.Intn(120))}},
		}}
	default:
		return Doc{
			"meta.sensor": fmt.Sprintf("s%d", r.Intn(4)),
			"duration":    map[string]any{"$nin": []any{0.0, 1.0}},
		}
	}
}

// resultKey canonicalizes a Find result for set comparison.
func resultKey(docs []Doc) []int64 {
	ids := make([]int64, len(docs))
	for i, d := range docs {
		ids[i] = d["_id"].(int64)
	}
	return ids
}

// TestPropertyIndexScanEquivalence is the partition-split regression
// net: for a corpus of generated filters, Find served by index shards
// and Find over an unindexed collection holding the same documents
// must return identical result sets, across several partition counts.
// A bug that loses or duplicates documents when an index is split
// across partitions shows up as a diff here.
func TestPropertyIndexScanEquivalence(t *testing.T) {
	for _, parts := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(parts) * 911))
			withIndex := NewDBWithPartitions(parts).Collection("alarms")
			without := NewDBWithPartitions(parts).Collection("alarms")
			// The same documents in the same order get the same ids.
			grow := func(n int) {
				seed := r.Int63()
				genCorpus(withIndex, rand.New(rand.NewSource(seed)), n)
				genCorpus(without, rand.New(rand.NewSource(seed)), n)
			}
			grow(400)
			for _, f := range []string{"zip", "duration"} { // built over the stored rows
				if err := withIndex.CreateIndex(f); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 60; round++ {
				filter := genFilter(r)
				indexed, err := withIndex.Find(filter)
				if err != nil {
					t.Fatalf("filter %v (indexed): %v", filter, err)
				}
				scanned, err := without.Find(filter)
				if err != nil {
					t.Fatalf("filter %v (scan): %v", filter, err)
				}
				if !reflect.DeepEqual(resultKey(indexed), resultKey(scanned)) {
					t.Fatalf("filter %v: indexed ids %v != scan ids %v",
						filter, resultKey(indexed), resultKey(scanned))
				}
				if len(indexed) > 0 && !reflect.DeepEqual(indexed[0], scanned[0]) {
					t.Fatalf("filter %v: first doc diverges: %v vs %v",
						filter, indexed[0], scanned[0])
				}
				grow(5) // later rounds read shards maintained on insert
			}
		})
	}
}

// TestPartitioningInvariance: the same single-threaded insert
// sequence must produce identical query answers whatever the
// partition count — partitioning is a physical layout choice, not a
// semantic one.
func TestPartitioningInvariance(t *testing.T) {
	build := func(parts int) *Collection {
		c, err := NewDBWithPartitions(parts).CollectionWithShardKey("alarms", "deviceMac")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CreateIndex("duration"); err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(99))
		genCorpus(c, r, 300)
		return c
	}
	ref := build(1)
	r := rand.New(rand.NewSource(7))
	filters := make([]Doc, 40)
	for i := range filters {
		filters[i] = genFilter(r)
	}
	for _, parts := range []int{2, 5, 8} {
		c := build(parts)
		for _, filter := range filters {
			want, err := ref.Find(filter)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Find(filter)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("partitions=%d filter %v: %d docs vs reference %d (or content diverged)",
					parts, filter, len(got), len(want))
			}
		}
	}
}
