package docstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// genValue draws a value of field f's kind — field f holds one kind,
// fixed by f modulo five: a string, a float64, an int64 beyond float64
// exactness, an int, or a whole float64 (which must not come back an
// int).
func genValue(r *rand.Rand, f int) any {
	switch f % 5 {
	case 0:
		return fmt.Sprintf("s%d", r.Intn(50))
	case 1:
		if r.Intn(2) == 0 {
			return r.NormFloat64() * 1e6
		}
		return math.Float64frombits(r.Uint64() &^ (0x7ff << 52)) // any finite float64
	case 2:
		return int64(1)<<55 + r.Int63n(1<<20)
	case 3:
		return r.Intn(1000) - 500
	default:
		return float64(r.Intn(100))
	}
}

// genDoc draws a flat document over a small field pool, so documents
// differ in which fields they carry.
func genDoc(r *rand.Rand) Doc {
	d := make(Doc)
	for i := 1 + r.Intn(6); i > 0; i-- {
		f := r.Intn(8)
		d[fmt.Sprintf("f%d", f)] = genValue(r, f)
	}
	return d
}

// findAll returns the collection's documents by id, the _id the store
// added stripped again.
func findAll(t *testing.T, c *Collection) map[int64]Doc {
	t.Helper()
	docs, err := findDocs(c)
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
// flat documents come back from InsertMany reflect.DeepEqual to what
// went in — int, int64 and float64 staying the kinds they were, a
// field a document lacks staying absent — live, after a WAL replay,
// and after a checkpoint + replay.
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

// mustPanic runs f and returns what it panicked with, failing the test
// when it returns normally.
func mustPanic(t *testing.T, what string, f func()) string {
	t.Helper()
	var got any
	func() {
		defer func() { got = recover() }()
		f()
	}()
	if got == nil {
		t.Fatalf("%s: no panic", what)
	}
	return fmt.Sprint(got)
}

// TestMixedKindFieldRefused: a field's kind is fixed by its first
// value. In process, a value of another kind — or of a Go type outside
// the kinds — is a caller bug: Insert, InsertMany and InsertRows panic
// naming the field (and both kinds), and store none of the batch. From
// disk, a row frame whose cell disagrees with its field's kind, or
// carries a retired kind byte, fails recovery with errBadFrame and
// leaves the log as it found it.
func TestMixedKindFieldRefused(t *testing.T) {
	c := NewDBWithPartitions(2).Collection("m")
	c.NewRows("v", "tag") // name the fields in Fields' order: a Doc's map order is random
	c.Insert(Doc{"v": 1, "tag": "t0"})
	for what, f := range map[string]func(){
		"Insert":     func() { c.Insert(Doc{"v": "1"}) },
		"InsertMany": func() { c.InsertMany([]Doc{{"v": 2, "tag": "t1"}, {"v": 2.5}}) },
		"InsertRows": func() {
			rows := c.NewRows("tag", "v")
			row := rows.Next()
			row[0], row[1] = String("t2"), Cell{kind: kindInt, num: 3}
			row = rows.Next()
			row[0], row[1] = String("t3"), Int64(3)
			c.InsertRows(rows)
		},
	} {
		msg := mustPanic(t, what, f)
		if !strings.Contains(msg, `"v"`) || !strings.Contains(msg, "int") {
			t.Errorf("%s panicked with %q, want the field and its kind named", what, msg)
		}
	}
	for what, v := range map[string]any{"bool": true, "nil": nil, "time": time.Unix(0, 0), "nested": map[string]any{"k": 1}, "int32": int32(1)} {
		if msg := mustPanic(t, what, func() { c.Insert(Doc{"w": v}) }); !strings.Contains(msg, `"w"`) {
			t.Errorf("%s value panicked with %q, want the field named", what, msg)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("refused batches stored rows: Len=%d, want 1", c.Len())
	}
	want := []FieldInfo{{Name: "v", Kind: "int"}, {Name: "tag", Kind: "string"}}
	if got := c.Fields(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Fields() = %+v, want %+v", got, want)
	}

	refuses := func(name string, frames ...[]byte) {
		t.Helper()
		dir := t.TempDir()
		opts := DurableOptions{Partitions: 1, SyncInterval: -1, CheckpointInterval: -1}
		db, err := OpenDB(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		db.Collection("a").Insert(Doc{"v": 1.0})
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "a", "p0-1.wal")
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, frame := range frames {
			if _, err := f.Write(frame); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if db, err := OpenDB(dir, opts); !errors.Is(err, errBadFrame) {
			if err == nil {
				db.Close()
			}
			t.Fatalf("%s: OpenDB = %v, want errBadFrame", name, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
			t.Fatalf("%s: refused log was rewritten", name)
		}
	}
	// A frame of the format the store writes, "v" a string this time.
	var enc rowEncoder
	enc.define([]int{0}, []Cell{String("x")})
	enc.begin([]string{"v"}, 1)
	enc.add(7, []int{0}, []Cell{String("x")})
	f, err := enc.finish()
	if err != nil {
		t.Fatal(err)
	}
	refuses("a string cell in a float64 field", append([]byte(nil), f...))
	// Kind byte 5, an older build's bool, in a field of its own.
	refuses("a retired kind", frameOf([]byte{frameRows, 1, 0, 1, 'b', 1, 8, 1, 0, 5, 1}))
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
			row[3], d["ok"] = Cell{kind: kindInt, num: 1}, 1 // otherwise left absent
		}
		docs = append(docs, d)
	}
	if first := typed.InsertRows(rows); first != 0 {
		t.Fatalf("first id %d, want 0", first)
	}
	viaDocs.InsertMany(docs)
	a, _ := findDocs(typed)
	b, _ := findDocs(viaDocs)
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
