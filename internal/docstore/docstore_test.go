package docstore

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
		})
	}
}

// cond builds a condition from a document value.
func cond(field, op string, v any) Cond {
	c, ok := cellOf(v)
	if !ok {
		panic(fmt.Sprintf("cond: a %T is not a kind", v))
	}
	return Cond{Field: field, Op: op, Value: c}
}

// eq is cond with $eq.
func eq(field string, v any) Cond { return cond(field, "$eq", v) }

// findDocs returns the documents matching conds, in insertion order:
// the oracle the tests read the store through. It scans like every
// read does (forEachMatch, pruned to one partition by a shard-key
// equality) and builds each matching row into a document.
func findDocs(c *Collection, conds ...Cond) ([]Doc, error) {
	f := compileFilter(c.dict, conds)
	lo, hi := c.targetRange(f)
	type match struct {
		id  int64
		doc Doc
	}
	var all []match
	err := c.forEach(lo, hi, nil, func(_ int, p *partition) error {
		p.mu.RLock()
		defer p.mu.RUnlock()
		return p.forEachMatch(f, 0, func(r int) { all = append(all, match{p.ids.At(r), rowDoc(p, r)}) })
	})
	if err != nil || len(all) == 0 {
		return nil, err
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	out := make([]Doc, len(all))
	for i, m := range all {
		out[i] = m.doc
	}
	return out, nil
}

// groupCountsWhere counts the documents matching conds per value of
// field, through the cached partials GroupCounts reads.
func groupCountsWhere(c *Collection, conds []Cond, field string) ([]GroupCount, error) {
	var out []GroupCount
	err := c.countGroups(conds, field, func(groups []pGroup) {
		for _, g := range groups {
			out = append(out, GroupCount{Key: g.key, Count: g.count})
		}
	})
	return out, err
}

// rowDoc builds row r of p into a document. Caller holds a read lock.
func rowDoc(p *partition, r int) Doc {
	names := p.dict.fieldNames() // under the partition lock: covers every slot of p.cols
	d := make(Doc, len(p.cols)+1)
	for s, col := range p.cols {
		if col != nil && col.has(r) {
			d[names[s]] = col.cell(r).value()
		}
	}
	d["_id"] = p.ids.At(r)
	return d
}

// get reads back the document with the given _id (nil when there is
// none): the store has no point lookup, and a match on _id is one.
func get(c *Collection, id int64) (Doc, error) {
	docs, err := findDocs(c, eq("_id", id))
	if err != nil || len(docs) == 0 {
		return nil, err
	}
	if len(docs) > 1 {
		return nil, fmt.Errorf("_id %d names %d documents", id, len(docs))
	}
	return docs[0], nil
}

// count is how many documents match conds.
func count(c *Collection, conds ...Cond) (int, error) {
	docs, err := findDocs(c, conds...)
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

// TestInsertCopiesDocument: the store keeps nothing of the caller's
// map — neither its later writes nor a caller-supplied _id.
func TestInsertCopiesDocument(t *testing.T) {
	c := NewDB().Collection("a")
	src := Doc{"k": "v", "_id": int64(77)}
	id := c.Insert(src)
	src["k"] = "mutated"
	got, _ := get(c, id)
	if got["k"] != "v" || got["_id"] != id {
		t.Errorf("stored %v, want k=v and the store's _id %d", got, id)
	}
}

func TestFindEqualityAndOperators(t *testing.T) {
	c := NewDB().Collection("alarms")
	seedAlarms(c, 100)

	byType, err := findDocs(c, eq("alarmType", "fire"))
	if err != nil {
		t.Fatal(err)
	}
	if len(byType) != 34 { // ceil(100/3)
		t.Errorf("fire count = %d, want 34", len(byType))
	}

	long, err := findDocs(c, cond("duration", "$gte", 300.0))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range long {
		if d["duration"].(float64) < 300 {
			t.Errorf("filter leak: %v", d["duration"])
		}
	}

	// An int64 column answers a float64 literal: numbers compare as
	// numbers, whatever their kind.
	late, err := findDocs(c, cond("ts", "$gte", float64(1_000_000+90*60)))
	if err != nil {
		t.Fatal(err)
	}
	if len(late) != 10 {
		t.Errorf("ts >= row 90's: %d docs, want 10", len(late))
	}
}

// TestLogicalOperators: a filter is a conjunction — every condition
// holds — and a Mongo operator outside the five comparisons is
// ErrBadFilter.
func TestLogicalOperators(t *testing.T) {
	c := NewDB().Collection("alarms")
	seedAlarms(c, 90)
	and, err := findDocs(c, eq("alarmType", "fire"), cond("duration", "$lt", 100.0))
	if err != nil {
		t.Fatal(err)
	}
	if len(and) == 0 {
		t.Fatal("conjunction matched nothing")
	}
	for _, d := range and {
		if d["alarmType"] != "fire" || d["duration"].(float64) >= 100 {
			t.Errorf("conjunction leak: %v", d)
		}
	}
	for _, op := range []string{"$or", "$and", "$in", "$ne", "$exists", "$regexPrefix"} {
		if _, err := findDocs(c, cond("alarmType", op, "fire")); !errors.Is(err, ErrBadFilter) {
			t.Errorf("operator %s: err %v, want ErrBadFilter", op, err)
		}
	}
}

// TestExistsAndNe: a row without the field has no cell there, and no
// comparison matches it — not even one with a literal of another
// family.
func TestExistsAndNe(t *testing.T) {
	c := NewDB().Collection("x")
	c.Insert(Doc{"a": 1})
	c.Insert(Doc{"b": 2})
	for _, cd := range []Cond{eq("a", 1), cond("a", "$gte", 0), cond("a", "$lt", "z")} {
		got, err := findDocs(c, cd)
		want := 1
		if cd.Value.rank() == 3 {
			want = 0 // a number is never compared with a string
		}
		if err != nil || len(got) != want {
			t.Errorf("%v: %d docs (err %v), want %d", cd, len(got), err, want)
		}
	}
	if got, err := findDocs(c, eq("b", 2.0)); err != nil || len(got) != 1 || got[0]["a"] != nil {
		t.Errorf("b = 2.0: %v (err %v), want the one row without a", got, err)
	}
}

func TestSortSkipLimit(t *testing.T) {
	c := NewDB().Collection("alarms")
	for i := 0; i < 10; i++ {
		for j := 0; j <= i; j++ {
			c.Insert(Doc{"v": 9 - i}) // v=9 once, v=8 twice, ..., v=0 ten times
		}
	}
	got, err := c.Aggregate(nil, countGroup("v"), SortStage{Field: "n"}, Limit{N: 3})
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
	desc, _ := c.Aggregate(nil, countGroup("v"), SortStage{Field: "-n"}, Limit{N: 2})
	if len(desc) != 2 || desc[0]["n"].(int) != 10 || desc[1]["n"].(int) != 9 {
		t.Errorf("descending sort broken: %v", desc)
	}
}

func TestUpdateAndDelete(t *testing.T) {
	c := NewDB().Collection("alarms")
	seedAlarms(c, 30)
	del, err := c.deleteWhere([]Cond{eq("alarmType", "technical")})
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
	scan, err := findDocs(c, eq("zip", "8003"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex("zip"); err != nil {
		t.Fatal(err)
	}
	indexed, err := findDocs(c, eq("zip", "8003"))
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

// TestIndexRangeMatchesScan: the index serves equalities only; a range
// on an indexed field scans, and finds what it found before the index.
func TestIndexRangeMatchesScan(t *testing.T) {
	c := NewDB().Collection("alarms")
	seedAlarms(c, 300)
	filter := []Cond{cond("duration", "$gte", 100.0), cond("duration", "$lt", 400.0)}
	scan, err := findDocs(c, filter...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex("duration"); err != nil {
		t.Fatal(err)
	}
	indexed, err := findDocs(c, filter...)
	if err != nil {
		t.Fatal(err)
	}
	if len(indexed) != len(scan) {
		t.Fatalf("range beside the index = %d docs, scan = %d", len(indexed), len(scan))
	}
}

func TestIndexMaintainedAcrossUpdateDelete(t *testing.T) {
	c := NewDB().Collection("alarms")
	if err := c.CreateIndex("zip"); err != nil {
		t.Fatal(err)
	}
	seedAlarms(c, 100)
	if n, _ := count(c, eq("zip", "8001")); n != 10 {
		t.Fatalf("after insert: %d", n)
	}
	c.deleteWhere([]Cond{eq("zip", "8001")})
	left, _ := count(c, eq("zip", "8001"))
	if left != 0 {
		t.Fatalf("after delete: %d", left)
	}
	// The rows the delete moved are still found under their own keys.
	if n, _ := count(c, eq("zip", "8002")); n != 10 {
		t.Fatalf("neighbour key after delete: %d", n)
	}
}

func TestAggregateGroupCount(t *testing.T) {
	c := NewDB().Collection("alarms")
	seedAlarms(c, 90)
	out, err := c.Aggregate(nil, countGroup("alarmType"), SortStage{Field: "alarmType"})
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
				if _, err := findDocs(c, eq("zip", "8003")); err != nil {
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
	n, _ := count(c, eq("zip", "8003"))
	if n != 100 {
		t.Fatalf("indexed count = %d, want 100", n)
	}
}

// TestCompareValuesOrdering: absent < number < string, and numbers
// compare as numbers across int, int64 and float64.
func TestCompareValuesOrdering(t *testing.T) {
	cases := []struct {
		a, b any
		want int
	}{
		{nil, 1, -1},
		{nil, "", -1},
		{1, 2.5, -1},
		{int64(3), 3, 0},
		{3.0, int64(3), 0},
		{"a", "b", -1},
		{"z", 5, 1},
	}
	for _, tc := range cases {
		a, _ := cellOf(tc.a)
		b, _ := cellOf(tc.b)
		got := compareCells(a, b)
		if (got < 0) != (tc.want < 0) || (got > 0) != (tc.want > 0) {
			t.Errorf("compare(%v,%v) = %d, want sign %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// Property: for random numeric datasets, a range query on an indexed
// field always agrees with one on a plain collection.
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
		filter := []Cond{cond("v", "$gte", lo), cond("v", "$lte", hi)}
		a, err1 := count(plain, filter...)
		b, err2 := count(indexed, filter...)
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
		c.Insert(Doc{"seq": i, "tag": fmt.Sprintf("t%d", i)})
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
	if _, err := c.deleteWhere([]Cond{eq("seq", total-1)}); err != nil {
		t.Fatal(err)
	}
	got := tailDocs(c, 3, "seq", "tag")
	if len(got) != 3 || got[2]["seq"].(int) != total-2 || got[2]["tag"] != fmt.Sprintf("t%d", total-2) {
		t.Fatalf("Tail after delete = %v", got)
	}
}

// TestTailRowsMatchesReference holds TailRows to the naive tail — every
// row of every partition, sorted by id, the last n kept — on 1, 4 and 8
// partitions, after rounds of concurrent batches whose arrivals
// interleave (rows land below ids already stored and are merged back
// into order), one batch landed out of order on purpose, and retention
// prunes run between the batches. Tail reads run beside the writers
// too: each is one snapshot, so its ids ascend and it holds at most n
// rows.
func TestTailRowsMatchesReference(t *testing.T) {
	fields := []string{"dev", "ts", "seq"}
	for _, parts := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			c, err := NewDBWithPartitions(parts).CollectionWithShardKey("tail", "dev")
			if err != nil {
				t.Fatal(err)
			}
			c.SetRetention("ts", 3*time.Second)
			var clock atomic.Int64 // the logical now, in seconds: a batch's ts
			clock.Store(100)
			r := rand.New(rand.NewSource(int64(parts)))
			for round := 0; round < 6; round++ {
				var wg sync.WaitGroup
				stop := make(chan struct{})
				for w := 0; w < 3; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						wr := rand.New(rand.NewSource(int64(100*round + w)))
						rows := c.NewRows(fields...)
						for b := 0; b < 30; b++ {
							for k := wr.Intn(40) + 1; k > 0; k-- {
								row := rows.Next()
								row[0] = String(fmt.Sprintf("d%02d", wr.Intn(12)))
								row[1] = Float(float64(clock.Load()))
								row[2] = Int64(int64(w<<20 | b<<8 | k))
							}
							c.InsertRows(rows)
							rows.Reset()
						}
					}(w)
				}
				wg.Add(1)
				go func() { // retention: the clock moves on, the oldest rows go
					defer wg.Done()
					for i := 0; i < 4; i++ {
						if _, err := c.PruneExpired(time.Unix(clock.Add(1), 0)); err != nil {
							t.Error(err)
						}
					}
				}()
				var readers sync.WaitGroup
				readers.Add(1)
				go func() { // tail reads beside the writers
					defer readers.Done()
					rows := c.NewRows(fields...)
					for n := 1; ; n = n%300 + 37 {
						select {
						case <-stop:
							return
						default:
						}
						c.TailRows(n, rows)
						if rows.Len() > n {
							t.Errorf("TailRows(%d) beside writers: %d rows", n, rows.Len())
						}
						for i := 1; i < rows.Len(); i++ {
							if rows.ids[i-1] >= rows.ids[i] {
								t.Errorf("TailRows(%d) beside writers: id %d before %d", n, rows.ids[i-1], rows.ids[i])
								break
							}
						}
					}
				}()
				wg.Wait()
				close(stop)
				readers.Wait()
				var first, later []Doc
				for k := 0; k < 20; k++ {
					first = append(first, Doc{"dev": fmt.Sprintf("d%02d", r.Intn(12)), "ts": float64(clock.Load()), "seq": int64(1<<30 + k)})
					later = append(later, Doc{"dev": fmt.Sprintf("d%02d", r.Intn(12)), "ts": float64(clock.Load()), "seq": int64(1<<31 + k)})
				}
				insertOutOfOrder(c, first, later, func() {})

				total := c.Len()
				for _, n := range []int{0, 1, int(c.parts[0].size.Load()), total + 5, r.Intn(total) + 1} {
					rows := c.NewRows(fields...)
					c.TailRows(n, rows)
					ids, cells := referenceTail(c, n, fields)
					if rows.Len() != len(ids) {
						t.Fatalf("round %d: TailRows(%d) = %d rows, reference %d", round, n, rows.Len(), len(ids))
					}
					for i := range ids {
						if rows.ids[i] != ids[i] || !slices.Equal(rows.Row(i), cells[i]) {
							t.Fatalf("round %d: TailRows(%d) row %d = id %d %v, reference id %d %v",
								round, n, i, rows.ids[i], rows.Row(i), ids[i], cells[i])
						}
					}
				}
			}
		})
	}
}

// referenceTail is the naive tail: every row of every partition read
// out, sorted by id, and the last n kept (all of them for n <= 0).
func referenceTail(c *Collection, n int, fields []string) ([]int64, [][]Cell) {
	slots := make([]int, len(fields))
	for i, f := range fields {
		slots[i] = c.dict.slot(f)
	}
	type row struct {
		id    int64
		cells []Cell
	}
	var all []row
	for _, p := range c.parts {
		p.mu.RLock()
		for r := 0; r < p.ids.Len(); r++ {
			cells := make([]Cell, len(slots))
			for i, s := range slots {
				cells[i] = p.cell(r, s)
			}
			all = append(all, row{p.ids.At(r), cells})
		}
		p.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	if n > 0 && n < len(all) {
		all = all[len(all)-n:]
	}
	ids, cells := make([]int64, len(all)), make([][]Cell, len(all))
	for i, r := range all {
		ids[i], cells[i] = r.id, r.cells
	}
	return ids, cells
}
