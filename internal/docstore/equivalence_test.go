package docstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
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
	got, err := findDocs(c, eq("v", 0.0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("equality query for 0.0 found %d docs, want 2", len(got))
	}
}

// genCorpus fills a collection with documents mixing the field shapes
// the filters below exercise: indexed strings, indexed float64s, and a
// small int.
func genCorpus(c *Collection, r *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		c.Insert(Doc{
			"deviceMac": fmt.Sprintf("mac-%02d", r.Intn(24)),
			"zip":       fmt.Sprintf("%04d", 8000+r.Intn(12)),
			"duration":  float64(r.Intn(500)),
			"level":     r.Intn(3),
		})
	}
}

// genFilter draws one filter from a small grammar covering the
// equalities the index shards can serve plus ranges and conjunctions
// that scan.
func genFilter(r *rand.Rand) []Cond {
	switch r.Intn(6) {
	case 0:
		return []Cond{eq("zip", fmt.Sprintf("%04d", 8000+r.Intn(12)))}
	case 1:
		return []Cond{eq("duration", float64(r.Intn(500)))}
	case 2:
		lo := float64(r.Intn(400))
		return []Cond{cond("duration", "$gte", lo), cond("duration", "$lt", lo+float64(1+r.Intn(150)))}
	case 3:
		return []Cond{cond("duration", "$gt", float64(r.Intn(500)))}
	case 4:
		return []Cond{eq("zip", fmt.Sprintf("%04d", 8000+r.Intn(12))), cond("duration", "$lt", float64(r.Intn(500)))}
	default:
		return []Cond{cond("deviceMac", "$lte", fmt.Sprintf("mac-%02d", r.Intn(24))), eq("level", r.Intn(3))}
	}
}

// resultKey canonicalizes a findDocs result for set comparison.
func resultKey(docs []Doc) []int64 {
	ids := make([]int64, len(docs))
	for i, d := range docs {
		ids[i] = d["_id"].(int64)
	}
	return ids
}

// edgeDoc is row i of the corpus where an index key and $eq could part
// ways: "nan" is a float64 column holding NaN, "count" an int column,
// "label" a string column holding the digits the numbers hold.
func edgeDoc(i int) Doc {
	return Doc{
		"nan":   []float64{math.NaN(), 5, 5.5}[i%3],
		"count": i % 7,
		"label": fmt.Sprint(i % 7),
		"shift": i % 2,
		"ts":    float64(1_000_000 + i),
	}
}

// edgeLits are the equality literals asked of the edge fields: NaN,
// ints and floats, and the string "5".
var edgeLits = []any{math.NaN(), 5, 5.0, int64(5), "5", 7.5}

// TestPropertyIndexScanEquivalence is the partition-split regression
// net: for a corpus of generated filters, reads served by index shards
// and reads over an unindexed collection holding the same documents
// must return identical result sets, across several partition counts.
// A bug that loses or duplicates documents when an index is split
// across partitions shows up as a diff here.
//
// An equality the index resolves checks only the filter's other nodes,
// so the test then asks equalities on the edge corpus — every edge
// literal on every edge field, alone, beside another node, and as a
// BucketCounts condition — and ranges with and on NaN, before and after
// rows are deleted and pruned: NaN must still match nothing under $eq,
// and a range must still find NaN rows.
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
				indexed, err := findDocs(withIndex, filter...)
				if err != nil {
					t.Fatalf("filter %v (indexed): %v", filter, err)
				}
				scanned, err := findDocs(without, filter...)
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

			for _, f := range []string{"nan", "count", "label"} {
				if err := withIndex.CreateIndex(f); err != nil {
					t.Fatal(err)
				}
			}
			edges := func(lo, hi int) {
				for i := lo; i < hi; i++ {
					withIndex.Insert(edgeDoc(i))
					without.Insert(edgeDoc(i))
				}
			}
			same := func(stage string, filter ...Cond) {
				indexed, err := findDocs(withIndex, filter...)
				if err != nil {
					t.Fatalf("%s: filter %v (indexed): %v", stage, filter, err)
				}
				scanned, err := findDocs(without, filter...)
				if err != nil {
					t.Fatalf("%s: filter %v (scan): %v", stage, filter, err)
				}
				if got, want := resultKey(indexed), resultKey(scanned); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: filter %v: indexed ids %v != scan ids %v", stage, filter, got, want)
				}
			}
			askEdges := func(stage string) {
				checkPostings(t, withIndex, stage) // NaN rows included: each is counted, under no key
				for _, field := range []string{"nan", "count", "label"} {
					// NaN is equal to every number under $gte and $lte,
					// as a bound and as a row's value alike.
					for _, bounds := range [][]Cond{
						{cond(field, "$gte", math.NaN())}, {cond(field, "$lte", math.NaN())}, {cond(field, "$gte", 5)},
						{cond(field, "$gt", 5), cond(field, "$lte", 7.5)}, {cond(field, "$gte", "5")},
					} {
						same(stage, bounds...)
					}
					for _, lit := range edgeLits {
						same(stage, eq(field, lit))
						same(stage, eq(field, lit), eq("shift", 1))
						same(stage, eq("shift", 0), eq(field, lit))
						conds := []Cond{eq(field, lit), cond("ts", "$gte", 0.0)}
						b := Bucket{Field: "ts", Origin: 1_000_000, Width: 10}
						var got, want []BucketCount
						if err := withIndex.BucketCounts([][]Cond{conds}, b, func(_ int, bars []BucketCount) { got = append(got, bars...) }); err != nil {
							t.Fatal(err)
						}
						if err := without.BucketCounts([][]Cond{conds}, b, func(_ int, bars []BucketCount) { want = append(want, bars...) }); err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: %s == %v: indexed bars %v != scan bars %v", stage, field, lit, got, want)
						}
					}
				}
			}
			edges(0, 140)
			askEdges("inserted")
			for _, c := range []*Collection{withIndex, without} {
				c.SetRetention("ts", time.Hour)
				if _, err := c.PruneExpired(time.Unix(1_000_000+3600+30, 0)); err != nil {
					t.Fatal(err)
				}
				for _, filter := range []Cond{eq("label", "5"), eq("nan", 5.5), eq("count", 3)} {
					if _, err := c.deleteWhere([]Cond{filter}); err != nil {
						t.Fatal(err)
					}
				}
			}
			askEdges("deleted and pruned")
			edges(140, 180)
			askEdges("appended after deletes")
			for _, c := range []*Collection{withIndex, without} {
				if _, err := c.deleteWhere([]Cond{cond("nan", "$gte", 5.5), cond("nan", "$lte", 5)}); err != nil { // only NaN is both
					t.Fatal(err)
				}
			}
			askEdges("NaN rows deleted")
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
	filters := make([][]Cond, 40)
	for i := range filters {
		filters[i] = genFilter(r)
	}
	for _, parts := range []int{2, 5, 8} {
		c := build(parts)
		for _, filter := range filters {
			want, err := findDocs(ref, filter...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := findDocs(c, filter...)
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
