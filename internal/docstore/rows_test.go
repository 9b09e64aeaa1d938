package docstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// genValue draws one document value over the store's whole value
// space: the five typed kinds, the boxed scalars, and nesting.
func genValue(r *rand.Rand, depth int) any {
	switch k := r.Intn(11); {
	case k == 0:
		return fmt.Sprintf("s%d", r.Intn(50))
	case k == 1:
		return r.NormFloat64() * 1e6
	case k == 2:
		return int64(1)<<55 + r.Int63n(1<<20) // beyond float64 exactness
	case k == 3:
		return r.Intn(1000) - 500
	case k == 4:
		return r.Intn(2) == 0
	case k == 5:
		return nil
	case k == 6:
		return time.Unix(1700000000+r.Int63n(1e6), r.Int63n(1e9)).UTC()
	case k == 7:
		return float64(r.Intn(100)) // a whole float64 must not come back an int
	case k == 8 && depth < 3:
		list := make([]any, r.Intn(4))
		for i := range list {
			list[i] = genValue(r, depth+1)
		}
		return list
	case k == 9 && depth < 3:
		m := make(map[string]any)
		for i := r.Intn(4); i > 0; i-- {
			m[fmt.Sprintf("n%d", r.Intn(6))] = genValue(r, depth+1)
		}
		return m
	default:
		return math.Float64frombits(r.Uint64() &^ (0x7ff << 52)) // any finite float64
	}
}

// genDoc draws a flat-or-nested document over a small field pool, so
// the same field sees several kinds and columns get promoted.
func genDoc(r *rand.Rand) Doc {
	d := make(Doc)
	for i := 1 + r.Intn(6); i > 0; i-- {
		d[fmt.Sprintf("f%d", r.Intn(8))] = genValue(r, 0)
	}
	return d
}

// findAll returns the collection's documents by id, the _id the store
// added stripped again.
func findAll(t *testing.T, c *Collection) map[int64]Doc {
	t.Helper()
	docs, err := c.Find(nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int64]Doc, len(docs))
	for _, d := range docs {
		id := d["_id"].(int64)
		delete(d, "_id")
		out[id] = d
	}
	return out
}

// TestPropertyDocRoundTrip is the store's persistence property: random
// flat and nested documents come back from InsertMany → Find
// reflect.DeepEqual to what went in — int, int64 and float64 staying
// the kinds they were — live, after a WAL replay, and after a
// checkpoint + replay, whatever columns were promoted on the way.
func TestPropertyDocRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("docs")
	r := rand.New(rand.NewSource(17))
	want := make(map[int64]Doc)
	insert := func(n int) {
		docs := make([]Doc, n)
		for i := range docs {
			docs[i] = genDoc(r)
		}
		for i, id := range c.InsertMany(docs) {
			want[id] = docs[i]
		}
	}
	check := func(stage string) {
		t.Helper()
		got := findAll(t, c)
		if len(got) != len(want) {
			t.Fatalf("%s: %d documents, want %d", stage, len(got), len(want))
		}
		for id, w := range want {
			if !reflect.DeepEqual(got[id], w) {
				t.Fatalf("%s: document %d changed:\n got %#v\nwant %#v", stage, id, got[id], w)
			}
		}
	}
	reopen := func() {
		t.Helper()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = OpenDB(dir, fastOpts()); err != nil {
			t.Fatal(err)
		}
		c = db.Collection("docs")
	}
	insert(300)
	check("live")
	reopen()
	check("after WAL replay")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insert(100)
	reopen()
	check("after checkpoint + replay")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMixedKindFieldPromotes pins the fallback: a field that holds an
// int and then a string is promoted to the boxed representation — and
// counted as such — yet still answers Find, group counts and
// histograms exactly like the streaming reference, and survives checkpoint + recovery; the
// fields beside it stay typed.
func TestMixedKindFieldPromotes(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, DurableOptions{Partitions: 1, SyncInterval: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("m")
	for i := 0; i < 40; i++ {
		d := Doc{"n": float64(i % 7), "tag": fmt.Sprintf("t%d", i%3), "v": i % 5}
		if i%4 == 3 {
			d["v"] = fmt.Sprintf("%d", i%5) // the second kind
		}
		c.Insert(d)
	}
	requireKinds := func(c *Collection) {
		t.Helper()
		want := map[string]FieldInfo{
			"n":   {Name: "n", Kind: "float64"},
			"tag": {Name: "tag", Kind: "string"},
			"v":   {Name: "v", Kind: "boxed", Boxed: 1},
		}
		fields := c.Fields()
		if len(fields) != len(want) {
			t.Fatalf("fields %+v, want %+v", fields, want)
		}
		for _, f := range fields {
			if f != want[f.Name] {
				t.Errorf("field %+v, want %+v", f, want[f.Name])
			}
		}
	}
	probes := func(c *Collection) []answer {
		t.Helper()
		var out []answer
		for i, filter := range []Doc{nil, {"v": 3}, {"v": "3"}, {"v": map[string]any{"$gte": 2}}, {"v": map[string]any{"$in": []any{1, "1"}}}} {
			docs, err := c.Find(filter)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, answer{docs: docs})
			for j, pr := range []probe{
				{filter: filter, stages: []Stage{countGroup("v")}},
				{filter: filter, stages: []Stage{countGroup("tag"), SortStage{Field: "-tag"}}},
				{filter: filter, stages: []Stage{countGroup("v"), SortStage{Field: "-v"}, Limit{N: 7}}},
				{conds: [][]Cond{{{Field: "v", Op: "$gte", Value: Float(1)}}, {{Field: "v", Op: "$eq", Value: String("3")}}}, bucket: Bucket{Field: "v", Origin: 0, Width: 2}},
			} {
				out = append(out, runBoth(t, c, pr, fmt.Sprintf("filter %d probe %d", i, j)))
			}
		}
		return out
	}
	requireKinds(c)
	before := probes(c)
	if len(before[5].docs) == 0 || len(before[10].docs) == 0 {
		t.Fatal("the int and the string probe must both match something")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c.Insert(Doc{"n": 1.0, "tag": "t0", "v": 2})
	before = probes(c)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	c2 := db2.Collection("m")
	requireKinds(c2)
	if after := probes(c2); !reflect.DeepEqual(after, before) {
		t.Fatalf("answers changed across checkpoint + recovery:\nbefore %v\nafter  %v", before, after)
	}
}

// TestTypedRowsMatchDocs pins "one insert path": the same content
// through InsertRows and through InsertMany is the same collection,
// and TailRows reads back what Tail does.
func TestTypedRowsMatchDocs(t *testing.T) {
	typed, viaDocs := NewDBWithPartitions(3).Collection("a"), NewDBWithPartitions(3).Collection("a")
	rows := typed.NewRows("id", "name", "score", "ok")
	var docs []Doc
	for i := 0; i < 50; i++ {
		row := rows.Next()
		row[0], row[1], row[2] = Int64(int64(i)), String(fmt.Sprintf("n%d", i%7)), Float(float64(i)/4)
		d := Doc{"id": int64(i), "name": fmt.Sprintf("n%d", i%7), "score": float64(i) / 4}
		if i%3 == 0 {
			row[3], d["ok"] = boolCell(true), true // otherwise left absent
		}
		docs = append(docs, d)
	}
	if first := typed.InsertRows(rows); first != 0 {
		t.Fatalf("first id %d, want 0", first)
	}
	viaDocs.InsertMany(docs)
	a, _ := typed.Find(nil)
	b, _ := viaDocs.Find(nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("typed rows and documents diverge:\n%v\n%v", a, b)
	}
	typed.TailRows(10, rows)
	tail := a[len(a)-10:]
	if rows.Len() != len(tail) {
		t.Fatalf("TailRows read %d rows, want %d", rows.Len(), len(tail))
	}
	for i, d := range tail {
		row := rows.Row(i)
		if rows.ids[i] != d["_id"] || row[0].I64() != d["id"] || row[1].Str() != d["name"] ||
			row[2].Num() != d["score"] || row[3].Present() != (d["ok"] != nil) {
			t.Fatalf("row %d: %v (id %d) vs %v", i, row, rows.ids[i], d)
		}
	}
}

// TestDBErrLatchesWALFailure fails a partition's log underneath its
// writer: the write API stays errorless, but DB.Err reports the
// failure from the first append that could not reach the log, and
// keeps reporting it. A memory-only database has nothing to report.
func TestDBErrLatchesWALFailure(t *testing.T) {
	if err := NewDB().Err(); err != nil {
		t.Fatalf("memory DB: %v", err)
	}
	db, err := OpenDB(t.TempDir(), DurableOptions{Partitions: 1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("a")
	c.Insert(Doc{"x": 1})
	if err := db.Err(); err != nil {
		t.Fatalf("healthy store: %v", err)
	}
	if err := c.parts[0].wal.Load().f.Close(); err != nil {
		t.Fatal(err)
	}
	c.Insert(Doc{"x": 2})
	if db.Err() == nil {
		t.Fatal("an append that never reached the log left Err nil")
	}
	if c.Len() != 2 {
		t.Fatalf("the store stopped applying writes: Len=%d", c.Len())
	}
	first := db.Err()
	c.Insert(Doc{"x": 3})
	if db.Err() != first {
		t.Fatalf("sticky error changed: %v then %v", first, db.Err())
	}
	if err := db.Close(); err == nil {
		t.Fatal("Close did not surface the failure")
	}
}

// TestUnencodableFrameCostsOnlyItself inserts a document whose nested
// value JSON cannot encode, in a field the log has not named yet. That
// frame is dropped (and DB.Err says so), but the frames after it must
// still define the field themselves: recovery keeps every later
// document instead of reading an undefined slot as a torn tail.
func TestUnencodableFrameCostsOnlyItself(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Partitions: 1, CheckpointInterval: -1}
	db, err := OpenDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("a")
	c.Insert(Doc{"x": 1})
	c.Insert(Doc{"x": 2, "extra": map[string]any{"bad": math.NaN()}})
	if db.Err() == nil {
		t.Fatal("the dropped frame was not reported")
	}
	c.Insert(Doc{"x": 3, "extra": "fine"})
	c.Insert(Doc{"x": 4, "extra": map[string]any{"ok": 1.5}})
	_ = db.Close() // surfaces the sticky error; the log itself is intact

	db, err = OpenDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var xs []int
	for _, d := range findAll(t, db.Collection("a")) {
		xs = append(xs, d["x"].(int))
		if d["x"] == 3 && d["extra"] != "fine" {
			t.Fatalf("field defined after the dropped frame came back as %v", d["extra"])
		}
	}
	sort.Ints(xs)
	if !reflect.DeepEqual(xs, []int{1, 3, 4}) {
		t.Fatalf("recovered x = %v, want [1 3 4]: only the unencodable document may be lost", xs)
	}
}
