package docstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func seedAlarms(c *Collection, n int) {
	r := rand.New(rand.NewSource(7))
	types := []string{"fire", "intrusion", "technical"}
	for i := 0; i < n; i++ {
		c.Insert(Doc{
			"deviceMac": fmt.Sprintf("mac-%03d", i%20),
			"zip":       fmt.Sprintf("%04d", 8000+i%10),
			"alarmType": types[i%len(types)],
			"duration":  float64(r.Intn(600)),
			"ts":        int64(1_000_000 + i*60),
			"meta":      map[string]any{"sensor": fmt.Sprintf("s%d", i%3)},
		})
	}
}

// get reads back the document with the given _id (nil when there is
// none): the store has no point lookup, and Find by _id is one.
func get(c *Collection, id int64) (Doc, error) {
	docs, err := c.Find(Doc{"_id": id})
	if err != nil || len(docs) == 0 {
		return nil, err
	}
	if len(docs) > 1 {
		return nil, fmt.Errorf("_id %d names %d documents", id, len(docs))
	}
	return docs[0], nil
}

// count is how many documents match filter: the store has no count, and
// Find's length is one.
func count(c *Collection, filter Doc) (int, error) {
	docs, err := c.Find(filter)
	return len(docs), err
}

func TestInsertAndGet(t *testing.T) {
	db := NewDB()
	c := db.Collection("alarms")
	id := c.Insert(Doc{"zip": "8400", "duration": 12.0})
	got, err := get(c, id)
	if err != nil {
		t.Fatal(err)
	}
	if got["zip"] != "8400" || got["duration"] != 12.0 {
		t.Errorf("got %v", got)
	}
	if got["_id"] != id {
		t.Errorf("_id = %v, want %d", got["_id"], id)
	}
	if d, err := get(c, 999); d != nil || err != nil {
		t.Errorf("_id 999 = %v, %v; want nothing", d, err)
	}
}

func TestInsertCopiesDocument(t *testing.T) {
	c := NewDB().Collection("a")
	src := Doc{"nested": map[string]any{"k": "v"}}
	id := c.Insert(src)
	src["nested"].(map[string]any)["k"] = "mutated"
	got, _ := get(c, id)
	if got["nested"].(map[string]any)["k"] != "v" {
		t.Error("stored doc shares memory with caller's doc")
	}
	// And reads must be isolated too.
	got["nested"].(map[string]any)["k"] = "mutated-again"
	got2, _ := get(c, id)
	if got2["nested"].(map[string]any)["k"] != "v" {
		t.Error("Find returns aliased memory")
	}
}

func TestFindEqualityAndOperators(t *testing.T) {
	c := NewDB().Collection("alarms")
	seedAlarms(c, 100)

	byType, err := c.Find(Doc{"alarmType": "fire"})
	if err != nil {
		t.Fatal(err)
	}
	if len(byType) != 34 { // ceil(100/3)
		t.Errorf("fire count = %d, want 34", len(byType))
	}

	long, err := c.Find(Doc{"duration": map[string]any{"$gte": 300.0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range long {
		if d["duration"].(float64) < 300 {
			t.Errorf("filter leak: %v", d["duration"])
		}
	}

	in, err := c.Find(Doc{"alarmType": map[string]any{"$in": []any{"fire", "intrusion"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 67 {
		t.Errorf("$in count = %d, want 67", len(in))
	}

	nested, err := c.Find(Doc{"meta.sensor": "s0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(nested) != 34 {
		t.Errorf("nested path count = %d, want 34", len(nested))
	}
}

func TestLogicalOperators(t *testing.T) {
	c := NewDB().Collection("alarms")
	seedAlarms(c, 90)
	or, err := c.Find(Doc{"$or": []any{
		map[string]any{"alarmType": "fire"},
		map[string]any{"alarmType": "technical"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(or) != 60 {
		t.Errorf("$or = %d, want 60", len(or))
	}
	and, err := c.Find(Doc{"$and": []any{
		map[string]any{"alarmType": "fire"},
		map[string]any{"duration": map[string]any{"$lt": 100.0}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range and {
		if d["alarmType"] != "fire" || d["duration"].(float64) >= 100 {
			t.Errorf("$and leak: %v", d)
		}
	}
	if _, err := c.Find(Doc{"$bogus": []any{}}); err == nil {
		t.Error("unknown logical operator accepted")
	}
}

func TestExistsAndNe(t *testing.T) {
	c := NewDB().Collection("x")
	c.Insert(Doc{"a": 1})
	c.Insert(Doc{"b": 2})
	got, err := c.Find(Doc{"a": map[string]any{"$exists": true}})
	if err != nil || len(got) != 1 {
		t.Fatalf("$exists true: %d docs, err %v", len(got), err)
	}
	got, err = c.Find(Doc{"a": map[string]any{"$exists": false}})
	if err != nil || len(got) != 1 {
		t.Fatalf("$exists false: %d docs, err %v", len(got), err)
	}
	// $ne matches documents missing the field, like MongoDB.
	got, err = c.Find(Doc{"a": map[string]any{"$ne": 1}})
	if err != nil || len(got) != 1 {
		t.Fatalf("$ne: %d docs, err %v", len(got), err)
	}
}

func TestSortSkipLimit(t *testing.T) {
	c := NewDB().Collection("alarms")
	for i := 0; i < 10; i++ {
		for j := 0; j <= i; j++ {
			c.Insert(Doc{"v": 9 - i}) // v=9 once, v=8 twice, ..., v=0 ten times
		}
	}
	got, err := c.Aggregate(Doc{}, countGroup("v"), SortStage{Field: "n"}, Limit{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	var vs []int
	for _, d := range got {
		vs = append(vs, d["v"].(int))
	}
	if !reflect.DeepEqual(vs, []int{9, 8, 7}) {
		t.Errorf("sorted window = %v", vs)
	}
	desc, _ := c.Aggregate(Doc{}, countGroup("v"), SortStage{Field: "-n"}, Limit{N: 2})
	if len(desc) != 2 || desc[0]["n"].(int) != 10 || desc[1]["n"].(int) != 9 {
		t.Errorf("descending sort broken: %v", desc)
	}
}

func TestUpdateAndDelete(t *testing.T) {
	c := NewDB().Collection("alarms")
	seedAlarms(c, 30)
	del, err := c.Delete(Doc{"alarmType": "technical"})
	if err != nil || del != 10 {
		t.Fatalf("deleted %d (%v), want 10", del, err)
	}
	if c.Len() != 20 {
		t.Fatalf("len after delete = %d, want 20", c.Len())
	}
}

func TestIndexEqualityMatchesScan(t *testing.T) {
	c := NewDB().Collection("alarms")
	seedAlarms(c, 200)
	scan, err := c.Find(Doc{"zip": "8003"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex("zip"); err != nil {
		t.Fatal(err)
	}
	indexed, err := c.Find(Doc{"zip": "8003"})
	if err != nil {
		t.Fatal(err)
	}
	if len(indexed) != len(scan) {
		t.Fatalf("indexed find returned %d, scan %d", len(indexed), len(scan))
	}
	if err := c.CreateIndex("zip"); err == nil {
		t.Error("duplicate index accepted")
	}
}

func TestIndexRangeMatchesScan(t *testing.T) {
	c := NewDB().Collection("alarms")
	seedAlarms(c, 300)
	filter := Doc{"duration": map[string]any{"$gte": 100.0, "$lt": 400.0}}
	scan, err := c.Find(filter)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex("duration"); err != nil {
		t.Fatal(err)
	}
	indexed, err := c.Find(filter)
	if err != nil {
		t.Fatal(err)
	}
	if len(indexed) != len(scan) {
		t.Fatalf("range via index = %d docs, scan = %d", len(indexed), len(scan))
	}
}

func TestIndexMaintainedAcrossUpdateDelete(t *testing.T) {
	c := NewDB().Collection("alarms")
	if err := c.CreateIndex("zip"); err != nil {
		t.Fatal(err)
	}
	seedAlarms(c, 100)
	if n, _ := count(c, Doc{"zip": "8001"}); n != 10 {
		t.Fatalf("after insert: %d", n)
	}
	c.Delete(Doc{"zip": "8001"})
	left, _ := count(c, Doc{"zip": "8001"})
	if left != 0 {
		t.Fatalf("after delete: %d", left)
	}
	// The rows the delete moved are still found under their own keys.
	if n, _ := count(c, Doc{"zip": "8002"}); n != 10 {
		t.Fatalf("neighbour key after delete: %d", n)
	}
}

func TestAggregateGroupCount(t *testing.T) {
	c := NewDB().Collection("alarms")
	seedAlarms(c, 90)
	out, err := c.Aggregate(Doc{}, countGroup("alarmType"), SortStage{Field: "alarmType"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0]["alarmType"] != "fire" || out[2]["alarmType"] != "technical" {
		t.Fatalf("groups = %v, want fire, intrusion, technical", out)
	}
	for _, g := range out {
		if g["n"].(int) != 30 {
			t.Errorf("group %v count = %v, want 30", g["alarmType"], g["n"])
		}
	}
}

func TestAggregateHistogram(t *testing.T) {
	c := NewDB().Collection("alarms")
	for i := 0; i < 50; i++ {
		c.Insert(Doc{"ts": float64(i)})
	}
	out, err := bucketCounts(c, [][]Cond{nil}, Bucket{Field: "ts", Origin: 0, Width: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != 5 {
		t.Fatalf("buckets = %d, want 5", len(out[0]))
	}
	for i, b := range out[0] {
		if b.Start != float64(i*10) || b.Count != 10 {
			t.Errorf("bucket %d = %+v", i, b)
		}
	}
	if _, err := bucketCounts(c, [][]Cond{nil}, Bucket{Field: "ts", Width: 0}); err == nil {
		t.Error("zero-width bucket accepted")
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	c := NewDB().Collection("alarms")
	c.CreateIndex("zip")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				c.Insert(Doc{"zip": fmt.Sprintf("%04d", 8000+i%10), "w": w})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := c.Find(Doc{"zip": "8003"}); err != nil {
					t.Errorf("find: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != 1000 {
		t.Fatalf("len = %d, want 1000", c.Len())
	}
	n, _ := count(c, Doc{"zip": "8003"})
	if n != 100 {
		t.Fatalf("indexed count = %d, want 100", n)
	}
}

func TestCompareValuesOrdering(t *testing.T) {
	now := time.Now()
	cases := []struct {
		a, b any
		want int
	}{
		{nil, false, -1},
		{true, false, 1},
		{1, 2.5, -1},
		{int64(3), 3, 0},
		{"a", "b", -1},
		{"z", 5, 1},
		{now, now.Add(time.Second), -1},
	}
	for _, tc := range cases {
		got := compareValues(tc.a, tc.b)
		if (got < 0) != (tc.want < 0) || (got > 0) != (tc.want > 0) {
			t.Errorf("compare(%v,%v) = %d, want sign %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// Property: for random numeric datasets, an indexed range query always
// agrees with a full scan.
func TestPropertyIndexedRangeEqualsScan(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		plain := NewDB().Collection("p")
		indexed := NewDB().Collection("i")
		indexed.CreateIndex("v")
		for i := 0; i < 150; i++ {
			v := float64(r.Intn(100))
			plain.Insert(Doc{"v": v})
			indexed.Insert(Doc{"v": v})
		}
		lo := float64(loRaw % 100)
		hi := lo + float64(hiRaw%40)
		filter := Doc{"v": map[string]any{"$gte": lo, "$lte": hi}}
		a, err1 := count(plain, filter)
		b, err2 := count(indexed, filter)
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTailReturnsMostRecentInInsertionOrder(t *testing.T) {
	db := NewDBWithPartitions(4)
	c := db.Collection("tail")
	const total = 250
	for i := 0; i < total; i++ {
		c.Insert(Doc{"seq": i, "meta": map[string]any{"seq": i}})
	}
	for _, n := range []int{1, 7, 100, total, total + 50, 0, -1} {
		got := tailDocs(c, n, "seq")
		want := total
		if n > 0 && n < total {
			want = n
		}
		if len(got) != want {
			t.Fatalf("Tail(%d) returned %d docs, want %d", n, len(got), want)
		}
		for i, d := range got {
			if seq := d["seq"].(int); seq != total-want+i {
				t.Fatalf("Tail(%d)[%d] seq = %d, want %d", n, i, seq, total-want+i)
			}
		}
	}
	// Deletions must not resurface in the tail.
	if _, err := c.Delete(Doc{"seq": total - 1}); err != nil {
		t.Fatal(err)
	}
	got := tailDocs(c, 3, "seq", "meta")
	if len(got) != 3 || got[2]["seq"].(int) != total-2 {
		t.Fatalf("Tail after delete = %v", got)
	}
	// A nested value must come back a copy, not an alias.
	got[2]["meta"].(map[string]any)["seq"] = -99
	if again := tailDocs(c, 1, "meta"); again[0]["meta"].(map[string]any)["seq"].(int) != total-2 {
		t.Fatalf("TailRows aliased stored document: %v", again[0])
	}
}
