package docstore

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// The interleaved half of the pushdown battery: the same standing
// queries asked between writes of every kind, so a cached partial is
// advanced, invalidated and rebuilt as it would be under ingest. After
// every write the pushdown answers must equal the streaming reference's,
// and the cached-partial counters must show the cost the design
// promises: a tail append folds only the appended rows, a write below
// a partial's mark costs exactly one fold from row 0, and nothing else
// costs anything.

// standingProbes are the asks the interleaved driver keeps making: the
// cached group counts (with and without an indexable filter, one with
// TopDevices' central tail) and two typed histograms, which are
// computed on every call. None pins the shard key: each visits every
// partition, which is what makes the counter arithmetic exact.
var standingProbes = []probe{
	{stages: []Stage{countGroup("deviceMac"), SortStage{Field: "-n"}, Limit{N: 10}}},
	{filter: []Cond{eq("level", 1)}, stages: []Stage{Group{By: []string{"sensor"}, Accs: map[string]Accumulator{
		"n": {Op: "count"}, "m": {Op: "count"}}}}},
	{filter: []Cond{eq("zip", "8003")}, stages: []Stage{countGroup("duration")}},
	{filter: []Cond{cond("duration", "$gte", 100.0), cond("duration", "$lt", 400.0)}, stages: []Stage{countGroup("zip"), SortStage{Field: "zip"}}},
	{conds: [][]Cond{{eq("zip", "8003")}}, bucket: Bucket{Field: "duration", Origin: 0, Width: 50}},
	{conds: [][]Cond{{eq("zip", "8005")}, {eq("level", 2)}}, bucket: Bucket{Field: "ts", Origin: 1_699_990_000, Width: 900}},
}

// standingCached is how many plan signatures one ask caches in every
// partition: the four group probes plus GroupCounts'.
const standingCached = 5

// interleaved drives one collection through a script of writes, asking
// after each.
type interleaved struct {
	t     *testing.T
	src   *fuzzReader
	dir   string // "" = memory only: the reopen op is skipped
	db    *DB
	c     *Collection
	now   time.Time
	extra *probe // asked beside the standing probes (the fuzzer's own)
}

func newInterleaved(t *testing.T, src *fuzzReader, parts int, dir string) *interleaved {
	t.Helper()
	d := &interleaved{t: t, src: src, dir: dir, now: time.Unix(1_700_000_000, 0)}
	d.open(parts)
	return d
}

func (d *interleaved) open(parts int) {
	d.t.Helper()
	if d.dir == "" {
		d.db = NewDBWithPartitions(parts)
	} else {
		var err error
		opts := fastOpts()
		opts.Partitions = parts
		if d.db, err = OpenDB(d.dir, opts); err != nil {
			d.t.Fatal(err)
		}
	}
	var err error
	if d.c, err = d.db.CollectionWithShardKey("alarms", "deviceMac"); err != nil {
		d.t.Fatal(err)
	}
	d.c.SetRetention("ts", time.Hour)
}

// gen draws n documents; about one in six is already past retention.
func (d *interleaved) gen(n int) []Doc {
	out := make([]Doc, n)
	for i := range out {
		ts := float64(d.now.Unix() - int64(d.src.byte())%3000)
		if d.src.byte()%6 == 0 {
			ts -= 7200
		}
		out[i] = Doc{
			"deviceMac": fmt.Sprintf("mac-%02d", int(d.src.byte())%24),
			"zip":       fmt.Sprintf("%04d", 8000+int(d.src.byte())%12),
			"duration":  float64(int(d.src.byte()) * 2),
			"level":     int(d.src.byte()) % 3,
			"ts":        ts,
			"sensor":    fmt.Sprintf("s%d", d.src.byte()%4),
		}
	}
	return out
}

// insertOutOfOrder lands two batches the way two concurrent InsertRows
// calls can: first's ids are issued before later's, but later's rows
// reach the partitions first, so first's rows arrive below them and
// restoreOrderLocked merges each partition's tail back into id order.
func insertOutOfOrder(c *Collection, first, later []Doc, between func()) {
	n := int64(len(first))
	base := c.nextID.Add(n) - n
	c.InsertMany(later)
	between()
	rows := raggedPool.Get().(*Rows)
	for _, doc := range first {
		rows.addDoc(c.dict, doc)
	}
	if err := c.dict.admit(rows); err != nil {
		panic(err)
	}
	for i := range first {
		slots, cells := rows.row(i)
		p := c.parts[c.route(slots, cells, base+int64(i))]
		p.mu.Lock()
		p.appendRowLocked(base+int64(i), slots, cells)
		p.restoreOrderLocked()
		if w := p.wal.Load(); w != nil {
			w.appendRows(c.dict, rows, []int32{int32(i)}, base)
		}
		p.mu.Unlock()
	}
	rows.Reset()
	raggedPool.Put(rows)
}

// ask runs every probe through both executors and the typed calls
// against the document ones, and returns what the asks did to the
// cached-partial counters.
func (d *interleaved) ask(tag string) AggPartialStats {
	d.t.Helper()
	t, c := d.t, d.c
	before := c.AggPartialStats()
	for i, pr := range standingProbes {
		runBoth(t, c, pr, fmt.Sprintf("%s: standing probe %d", tag, i))
	}
	zips, err := c.GroupCounts("zip", nil)
	if err != nil {
		t.Fatalf("%s: GroupCounts: %v", tag, err)
	}
	want, err := c.aggregateStreaming(nil, countGroup("zip"))
	if err != nil || len(want) != len(zips) {
		t.Fatalf("%s: GroupCounts has %d groups, streaming %d (%v)", tag, len(zips), len(want), err)
	}
	for i, g := range zips {
		if g.Key.Str() != want[i]["zip"] || g.Count != want[i]["n"] {
			t.Fatalf("%s: GroupCounts[%d] = %s × %d, streaming %v", tag, i, g.Key.Str(), g.Count, want[i])
		}
	}
	after := c.AggPartialStats()
	// The history's per-device histogram sweep, computed afresh.
	sweep := probe{bucket: Bucket{Field: "ts", Origin: float64(d.now.Unix() - 3000), Width: 600}}
	for i := 0; i < 24; i += 5 {
		sweep.conds = append(sweep.conds, []Cond{
			{Field: "deviceMac", Op: "$eq", Value: String(fmt.Sprintf("mac-%02d", i))},
			{Field: "ts", Op: "$gte", Value: Float(sweep.bucket.Origin)}})
	}
	bars := runBoth(t, c, sweep, tag+": histogram sweep").bars
	// The sweep counts exactly the rows in its bars, and touches no
	// cached partial.
	counted := int64(0)
	for _, dev := range bars {
		for _, bar := range dev {
			counted += int64(bar.Count)
		}
	}
	st := c.AggPartialStats()
	if st.RowsBucketed-after.RowsBucketed != counted {
		t.Fatalf("%s: the histogram sweep counted %d rows, its bars hold %d", tag, st.RowsBucketed-after.RowsBucketed, counted)
	}
	if st.RowsBucketed = after.RowsBucketed; st != after {
		t.Fatalf("%s: a histogram touched the cached partials: %+v, then %+v", tag, after, st)
	}
	if d.extra != nil {
		runBoth(t, c, *d.extra, tag+": fuzzed probe")
	}
	return AggPartialStats{
		Served:     after.Served - before.Served,
		Advanced:   after.Advanced - before.Advanced,
		Recomputed: after.Recomputed - before.Recomputed,
		RowsFolded: after.RowsFolded - before.RowsFolded,
	}
}

// settle asks twice: the first ask pays for the write before it and
// must recompute between lo and hi partials; the second finds every
// partial at the tail. It returns the first ask's counters.
func (d *interleaved) settle(tag string, lo, hi int64) AggPartialStats {
	d.t.Helper()
	first := d.ask(tag)
	if first.Recomputed < lo || first.Recomputed > hi {
		d.t.Fatalf("%s: %d partials recomputed, want %d to %d", tag, first.Recomputed, lo, hi)
	}
	all := int64(standingCached * len(d.c.parts))
	if again := d.ask(tag + ", asked again"); again != (AggPartialStats{Served: all}) {
		d.t.Fatalf("%s: a second ask read %+v, want %d served and nothing else", tag, again, all)
	}
	return first
}

// settleRewrite settles after a delete or prune: when it changed
// anything, every standing signature is recomputed once per partition
// it rewrote — at least one, at most all.
func (d *interleaved) settleRewrite(tag string, changed bool) {
	d.t.Helper()
	if !changed {
		d.settle(tag, 0, 0)
		return
	}
	d.settle(tag, standingCached, int64(standingCached*len(d.c.parts)))
}

// step performs one write drawn from the script, then settles.
func (d *interleaved) step() {
	d.t.Helper()
	c, parts := d.c, len(d.c.parts)
	switch op := d.src.byte() % 9; op {
	case 0, 1: // tail insert: every partial advances over exactly the new rows
		n := 1 + int(d.src.byte())%6
		c.InsertMany(d.gen(n))
		if st := d.settle("tail insert", 0, 0); st.RowsFolded != int64(standingCached*n) {
			d.t.Fatalf("tail insert of %d: %d rows folded, want %d", n, st.RowsFolded, standingCached*n)
		}
	case 2: // two batches out of id order, asked in between: the re-sort reaches below the marks
		first, later := d.gen(1+int(d.src.byte())%4), d.gen(1+int(d.src.byte())%4)
		hit := make(map[int]bool) // partitions later's rows reach
		partOf := func(doc Doc) int {
			k, _ := keyForCell(String(doc["deviceMac"].(string)))
			return int(hashKey(k) % uint64(parts))
		}
		for _, doc := range later {
			hit[partOf(doc)] = true
		}
		resorted := 0 // partitions where a row of first lands below one of later
		for pi := range hit {
			for _, doc := range first {
				if partOf(doc) == pi {
					resorted++
					break
				}
			}
		}
		insertOutOfOrder(c, first, later, func() { d.settle("first of two batches", 0, 0) })
		d.settle("late batch", int64(standingCached*resorted), int64(standingCached*resorted))
	case 3: // the same, not asked in between: the re-sort starts at the marks, nothing to redo
		first, later := d.gen(1+int(d.src.byte())%4), d.gen(1+int(d.src.byte())%4)
		insertOutOfOrder(c, first, later, func() {})
		if st := d.settle("late batch, unobserved", 0, 0); st.RowsFolded != int64(standingCached*(len(first)+len(later))) {
			d.t.Fatalf("unobserved late batch: %d rows folded, want %d", st.RowsFolded, standingCached*(len(first)+len(later)))
		}
	case 4: // delete by equality: index-served once zip is indexed
		n, err := c.deleteWhere([]Cond{eq("zip", fmt.Sprintf("%04d", 8000+int(d.src.byte())%12)), eq("level", int(d.src.byte())%3)})
		if err != nil {
			d.t.Fatal(err)
		}
		d.settleRewrite("delete by key", n > 0)
	case 5: // delete by range
		lo := float64(int(d.src.byte()) * 2)
		n, err := c.deleteWhere([]Cond{cond("duration", "$gte", lo), cond("duration", "$lt", lo+12)})
		if err != nil {
			d.t.Fatal(err)
		}
		d.settleRewrite("delete", n > 0)
	case 6: // retention prune
		n, err := c.PruneExpired(d.now)
		if err != nil {
			d.t.Fatal(err)
		}
		d.settleRewrite("prune", n > 0)
	case 7: // index DDL moves no row: the partials stand
		for _, field := range []string{"zip", "duration"} {
			if err := c.CreateIndex(field); err != nil && !errors.Is(err, ErrIndexExists) {
				d.t.Fatal(err)
			}
		}
		d.settle("index ddl", 0, 0)
	default: // checkpoint and reopen: a recovered store starts with no partials
		if d.dir == "" {
			return
		}
		if d.src.byte()%2 == 0 {
			if err := d.db.Checkpoint(); err != nil {
				d.t.Fatal(err)
			}
			c.InsertMany(d.gen(2)) // past the checkpoint: replayed from the log
		}
		if err := d.db.Close(); err != nil {
			d.t.Fatal(err)
		}
		d.open(parts)
		all := int64(standingCached * parts)
		d.settle("reopen", all, all)
	}
}

// runInterleaved seeds a store, asks once (every partial is built), and
// plays the script.
func runInterleaved(t *testing.T, src *fuzzReader, parts, seed, steps int, dir string, extra *probe) {
	t.Helper()
	d := newInterleaved(t, src, parts, dir)
	defer d.db.Close()
	d.extra = extra
	d.c.InsertMany(d.gen(seed))
	all := int64(standingCached * parts)
	d.settle("first ask", all, all)
	for i := 0; i < steps && src.pos < len(src.data); i++ {
		d.step()
	}
}

// TestPartialAdvanceCost pins the cost model at a size where it
// matters: on 50 000 rows, a standing group count asked again after ten
// inserts reads those ten rows and rebuilds nothing.
func TestPartialAdvanceCost(t *testing.T) {
	c, err := NewDBWithPartitions(4).CollectionWithShardKey("alarms", "deviceMac")
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Doc, 0, 500)
	for i := 0; i < 50_000; i++ {
		batch = append(batch, Doc{"deviceMac": fmt.Sprintf("mac-%04d", i%1200), "zip": fmt.Sprintf("%04d", 8000+i%40)})
		if len(batch) == cap(batch) {
			c.InsertMany(batch)
			batch = batch[:0]
		}
	}
	first, err := c.GroupCounts("deviceMac", nil)
	if err != nil || len(first) != 1200 {
		t.Fatalf("first ask: %d groups, %v", len(first), err)
	}
	if st := c.AggPartialStats(); st.Recomputed != 4 || st.RowsFolded != 50_000 {
		t.Fatalf("first ask: %+v, want 4 partials recomputed over 50 000 rows", st)
	}
	for round := 0; round < 5; round++ {
		before := c.AggPartialStats()
		for i := 0; i < 10; i++ {
			c.Insert(Doc{"deviceMac": fmt.Sprintf("mac-%04d", (round*10+i)%1200), "zip": "8000"})
		}
		got, err := c.GroupCounts("deviceMac", nil)
		if err != nil {
			t.Fatal(err)
		}
		st := c.AggPartialStats()
		if folded := st.RowsFolded - before.RowsFolded; folded != 10 || st.Recomputed != before.Recomputed {
			t.Fatalf("round %d: %d rows folded and %d partials recomputed after 10 inserts, want 10 and 0",
				round, folded, st.Recomputed-before.Recomputed)
		}
		want, _ := c.aggregateStreaming(nil, Group{By: []string{"deviceMac"}, Accs: map[string]Accumulator{"n": {Op: "count"}}})
		for i, g := range got {
			if g.Key.Str() != want[i]["deviceMac"] || g.Count != want[i]["n"] {
				t.Fatalf("round %d: group %d = %s × %d, streaming %v", round, i, g.Key.Str(), g.Count, want[i])
			}
		}
	}
	// A cached answer is the caller's: scribbling on it changes nothing.
	got, _ := c.GroupCounts("deviceMac", nil)
	want := append([]GroupCount(nil), got...)
	for i := range got {
		got[i] = GroupCount{}
	}
	if again, _ := c.GroupCounts("deviceMac", nil); !reflect.DeepEqual(again, want) {
		t.Fatal("a served answer aliased the cached partial")
	}
}
