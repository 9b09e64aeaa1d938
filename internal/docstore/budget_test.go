//go:build !race

package docstore

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"alarmverify/internal/lane"
)

// chunk0Sizes is how many sizes a lane's chunk 0 grows through: 512,
// 1 024, 2 048 and 4 096 rows, each a chunk of its own.
const chunk0Sizes = 4

// TestSyncTickAllocBudget: a group-syncer tick over a store whose four
// logs all hold unsynced frames allocates nothing — it gathers the logs
// into the syncer's own slice and fsyncs them with no lock held. Before,
// every tick copied the collection set into a fresh slice, busy or
// idle: 137 of a drain_wal round's objects.
func TestSyncTickAllocBudget(t *testing.T) {
	db, err := OpenDB(t.TempDir(), DurableOptions{Partitions: 4, SyncInterval: time.Hour, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	col := db.Collection("a")
	frame := frameOf([]byte(`{"op":"del","filter":{"none":{"$eq":1}}}`))
	logs, _ := db.syncAll(nil)
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range col.parts {
			p.wal.Load().writeFrame(frame)
		}
		if logs, err = db.syncAll(logs); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a syncer tick over 4 dirty logs allocates %.1f objects, budget 0", allocs)
	}
	for _, p := range col.parts {
		if w := p.wal.Load(); w.synced != w.written || w.written == 0 {
			t.Fatalf("the ticks left frames %d..%d of a log unsynced", w.synced+1, w.written)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexAppendAllocBudget: once its keys are known, an index shard
// appends rows without allocating — a row goes into its key's tail
// block in place — except for a page every few thousand blocks. Before
// the lists were chains of blocks each one regrew as it filled: 0.15
// allocations an alarm of drain_mem. The race runtime inflates the
// count, hence the tag.
func TestIndexAppendAllocBudget(t *testing.T) {
	const keys, warm, rows = 100, 2_000, 20_000
	c := NewDBWithPartitions(1).Collection("x")
	batch := c.NewRows("k")
	for r := 0; r < warm+rows; r++ {
		batch.Next()[0] = String(fmt.Sprintf("mac-%03d", r%keys))
	}
	c.InsertRows(batch)
	p := c.parts[0]
	p.mu.Lock()
	defer p.mu.Unlock()
	// A collection during the appends would count the runtime's own
	// allocations too.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func() (allocs uint64, grown int) {
		x := &index{slot: c.dict.ref("k"), eq: make(map[indexKey]postings), free: noBlock}
		for r := 0; r < warm; r++ {
			x.add(p, r) // every key seen, its first blocks carved
		}
		pages := len(x.pages)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := warm; r < warm+rows; r++ {
			x.add(p, r)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, len(x.pages) - pages
	}
	// Mallocs counts the whole process, so a goroutine of the test
	// binary's can land in the window: the appends' own count is the
	// least of a few trials. Each trial builds a fresh index, so an
	// allocation the appends make themselves fails every one of them.
	allocs, grown := measure()
	for trial := 1; trial < 3 && allocs > uint64(2*grown); trial++ {
		allocs, grown = measure()
	}
	t.Logf("%d rows appended: %d allocations, %d new pages", rows, allocs, grown)
	if allocs > uint64(2*grown) { // a page, and the page list's growth
		t.Fatalf("%d rows appended: %d allocations for %d new pages, budget 0 a row beyond them", rows, allocs, grown)
	}
}

// TestColumnAppendAllocBudget: appending rows to columns allocates their
// lanes' chunks and chunk lists and nothing else — no column is copied
// as it grows, and a dense column keeps no presence bitmap. The slabs
// here are not sized to a dictionary, so every carve is a block of its
// own and the budget is per lane; TestPartitionFillAllocBudget counts a
// partition's sized slabs. Before the lanes each typed slice regrew by
// copy at 1.25×, and so did an all-ones bitmap beside it.
func TestColumnAppendAllocBudget(t *testing.T) {
	const rows = 20_000
	row := []Cell{
		Int64(7), String("00:1a:2b:3c:4d:5e"), Float(1.7e9), String("fire"), String("Zürich"),
		Float(47.37), Float(8.54), Cell{kind: kindInt, num: 3},
	}
	// A collection during the appends would count the runtime's own
	// allocations too.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func() (allocs, chunks uint64) {
		cols := make([]column, len(row))
		var s slabs
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < rows; r++ {
			for i := range cols {
				cols[i].set(r, row[i], &s)
			}
		}
		runtime.ReadMemStats(&after)
		// A lane allocates its chunk list, chunk 0 at each size it
		// doubles through, and every later chunk.
		for i := range cols {
			c := &cols[i]
			if c.present != nil {
				t.Fatalf("column %d holds every row yet keeps a bitmap", i)
			}
			if c.n != rows {
				t.Fatalf("column %d holds %d of %d rows", i, c.n, rows)
			}
			strs, _ := c.strs.Chunks()
			nums, _ := c.nums.Chunks()
			chunks += 1 + uint64(chunk0Sizes) + uint64(strs+nums-1)
		}
		return after.Mallocs - before.Mallocs, chunks
	}
	// Mallocs counts the whole process, so a goroutine of the test
	// binary's can land in the window: the appends' own count is the
	// least of a few trials. Each trial appends to fresh columns, so an
	// allocation the appends make themselves fails every one of them.
	allocs, chunks := measure()
	for trial := 1; trial < 5 && allocs > chunks; trial++ {
		a, _ := measure()
		allocs = min(allocs, a)
	}
	t.Logf("%d rows of %d fields appended: %d allocations, %d of them the lanes' chunks", rows, len(row), allocs, chunks)
	if allocs > chunks {
		t.Fatalf("%d rows of %d fields appended: %d allocations, budget the lanes' %d", rows, len(row), allocs, chunks)
	}
}

// TestPartitionFillAllocBudget: filling a partition allocates by chunk
// generation, not by column. Its columns, their lanes' chunks and chunk
// lists, and the id lane's, are carved from one slab per element type
// (string, uint64, int64), each block sized from the field dictionary,
// so 10 000 rows of the alarms' nine fields cost a block per element
// type for each of chunk 0's four sizes and each later chunk, a block
// of chunk lists per element type, the column block and the column
// list. A row with the stored verdict's four more fields — int64
// predicted, float64 probability, string model and int64 modelVersion,
// the cells core's fillRow writes — costs no more objects. Before,
// every lane allocated its own chunks and chunk list and every column
// its own struct: 84 objects for the nine fields, 112 for twelve.
func TestPartitionFillAllocBudget(t *testing.T) {
	const rows = 10_000
	nine := []string{"alarmId", "deviceMac", "zip", "ts", "duration", "type", "objectType", "sensorType", "softwareVersion"}
	row := []Cell{
		Int64(7), String("00:1a:2b:3c:4d:5e"), String("8001"), Float(1.7e9), Float(12.5),
		String("fire"), String("building"), String("smoke"), String("v2.1"),
	}
	thirteen := append(slices.Clone(nine), "predicted", "probability", "model", "modelVersion")
	wide := append(slices.Clone(row), Int64(1), Float(0.93), String("random-forest"), Int64(3))
	// A collection during a fill would count the runtime's own
	// allocations too.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// fill appends the rows to a fresh partition whose dictionary holds
	// the fields; the batch is built and admitted beforehand. Mallocs
	// counts the whole process, so a goroutine of the test binary's can
	// land in the window: the fill's own count is the least of a few
	// trials.
	fill := func(fields []string, row []Cell) (allocs uint64, p *partition) {
		allocs = math.MaxUint64
		for trial := 0; trial < 3; trial++ {
			c := NewDBWithPartitions(1).Collection("x")
			batch := c.NewRows(fields...)
			for r := 0; r < rows; r++ {
				copy(batch.Next(), row)
			}
			if err := c.dict.admit(batch); err != nil {
				t.Fatal(err)
			}
			p = c.parts[0]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for r := 0; r < rows; r++ {
				slots, cells := batch.row(r)
				p.appendRowLocked(int64(r), slots, cells)
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
		}
		return allocs, p
	}
	allocs, p := fill(nine, row)
	// Generations: chunk 0 at each size it doubles through, then every
	// later chunk. Each costs one block per element type.
	ids, _ := p.ids.Chunks()
	gens := chunk0Sizes + ids - 1
	budget := uint64(3*gens + 3 + 2)
	t.Logf("%d rows of %d fields: %d allocations, budget %d (%d chunk generations)", rows, len(nine), allocs, budget, gens)
	if allocs > budget {
		t.Fatalf("%d rows of %d fields: %d allocations, budget %d: %d generations × 3 element types, 3 chunk-list blocks, the column block and the column list",
			rows, len(nine), allocs, budget, gens)
	}
	for s, col := range p.cols {
		if col.n != rows || col.present != nil {
			t.Fatalf("column %d holds %d of %d rows (bitmap %v)", s, col.n, rows, col.present != nil)
		}
	}
	if wideAllocs, _ := fill(thirteen, wide); wideAllocs > allocs {
		t.Fatalf("%d rows of %d fields: %d allocations, more than the %d of %d fields", rows, len(thirteen), wideAllocs, allocs, len(nine))
	}
}

// TestIDColumnAllocBudget: a partition's id column is a lane like every
// field's values, so appending ids allocates the lane's chunks and
// nothing else, and a checkpoint's capture (copyLocked) shares them.
// Before, the ids were one slice that regrew by copy as it filled, and
// copyLocked copied all of it under the write lock: 805 KB at 100 000
// rows, where sharing leaves the chunk lists and the columns' headers.
func TestIDColumnAllocBudget(t *testing.T) {
	const rows = 100_000
	c := NewDBWithPartitions(1).Collection("x")
	fields := []string{"alarmId", "deviceMac", "ts", "type", "location", "lat", "lon", "zone"}
	row := []Cell{
		Int64(7), String("00:1a:2b:3c:4d:5e"), Float(1.7e9), String("fire"), String("Zürich"),
		Float(47.37), Float(8.54), Cell{kind: kindInt, num: 3},
	}
	batch := c.NewRows(fields...)
	for r := 0; r < rows; r++ {
		copy(batch.Next(), row)
	}
	c.InsertRows(batch)
	p := c.parts[0]
	// A collection during a measurement would count the runtime's own
	// allocations too.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Mallocs and TotalAlloc count the whole process, so a goroutine of
	// the test binary's can land in a window: each figure is the least of
	// a few trials.
	var before, after runtime.MemStats
	captured := uint64(math.MaxUint64)
	for trial := 0; trial < 3; trial++ {
		p.mu.Lock()
		runtime.ReadMemStats(&before)
		snap := p.copyLocked()
		runtime.ReadMemStats(&after)
		p.mu.Unlock()
		if snap.ids.Len() != rows {
			t.Fatalf("the capture holds %d of %d ids", snap.ids.Len(), rows)
		}
		captured = min(captured, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("copyLocked of %d rows of %d fields: %d B", rows, len(fields), captured)
	if captured > 16<<10 {
		t.Fatalf("copyLocked of %d rows of %d fields allocates %d B, budget 16 KB", rows, len(fields), captured)
	}

	// The lane allocates its chunk list, chunk 0 at each size it doubles
	// through (together less than two full chunks), and every later
	// chunk: objects and bytes both. The object count alone would not
	// tell a regrown slice (28 allocations to 100 000 ids) from the
	// lane; the bytes do (about 4 MB of copies).
	appended, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var chunks, chunkBytes uint64
	for trial := 0; trial < 3; trial++ {
		q := newPartition(p.dict)
		runtime.ReadMemStats(&before)
		for r := 0; r < rows; r++ {
			q.appendRowLocked(int64(r), nil, nil)
		}
		runtime.ReadMemStats(&after)
		appended = min(appended, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		ids, _ := q.ids.Chunks()
		full := uint64(ids - 1)
		chunks = 1 + uint64(chunk0Sizes) + full
		chunkBytes = 8 * (2 + full) * lane.ChunkRows
	}
	t.Logf("%d ids appended: %d allocations (%d B), %d of them the lane's chunks", rows, appended, bytes, chunks)
	if appended > chunks+2 || bytes > chunkBytes+4<<10 { // the chunk list's own growth past 8 chunks
		t.Fatalf("%d ids appended: %d allocations (%d B), budget the lane's %d chunks (%d B) + 2 (4 KB)",
			rows, appended, bytes, chunks, chunkBytes)
	}
}
