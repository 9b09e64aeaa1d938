//go:build !race

package broker

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// TestReleasedAppendAllocBudget: with one group committing behind the
// producer, a warm partition's appends reuse the arena blocks the
// commits release, so 100 000 appends of 500-byte records allocate no
// object but the record headers' chunks (released to the collector,
// not reused): 0 objects an append. A release — a commit that lets go
// of whole chunks and blocks — allocates nothing. Before, the arena
// allocated a 64 KB block every 131 records and the header slice
// regrew by copy, and nothing was ever released.
func TestReleasedAppendAllocBudget(t *testing.T) {
	const warm, n, lag, every = 50_000, 100_000, 1_000, 500
	_, topic, c, _ := releaseLog(t)
	recs := []Record{{Value: make([]byte, 500)}}
	offsets := map[int]int64{0: 0}
	step := func(i int) {
		if _, err := topic.Append(0, -1, 0, recs); err != nil {
			t.Fatal(err)
		}
		if i%every == 0 && i > lag {
			offsets[0] = int64(i - lag)
			if err := c.CommitOffsets(offsets); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < warm; i++ {
		step(i)
	}
	// A collection during the appends would count the runtime's own
	// allocations too.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Mallocs counts the whole process, so a goroutine of the test
	// binary's can land in the window: the appends' own count is the
	// least of a few runs of them.
	var before, after runtime.MemStats
	chunks := uint64(n/4096 + 1)
	allocs := uint64(math.MaxUint64)
	end := warm
	for trial := 0; trial < 3 && allocs > chunks; trial++ {
		runtime.ReadMemStats(&before)
		for i := end; i < end+n; i++ {
			step(i)
		}
		runtime.ReadMemStats(&after)
		end += n
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
	t.Logf("%d appends behind a committing group: %d allocations (%.5f an append), at most %d of them header chunks", n, allocs, float64(allocs)/n, chunks)
	if allocs > chunks || allocs/n != 0 {
		t.Fatalf("%d appends: %d allocations, budget the %d header chunks", n, allocs, chunks)
	}

	// A release: a commit that lets go of three chunks of records and
	// the blocks under them, the least of a few for the same reason.
	allocs = math.MaxUint64
	for trial := 0; trial < 3 && allocs > 0; trial++ {
		for i := end; i < end+3*4096; i++ {
			if _, err := topic.Append(0, -1, 0, recs); err != nil {
				t.Fatal(err)
			}
		}
		end += 3 * 4096
		offsets[0] = int64(end - lag)
		start, _, _ := topic.LogStart(0)
		runtime.ReadMemStats(&before)
		if err := c.CommitOffsets(offsets); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if now, _, _ := topic.LogStart(0); now-start < 3*4096 {
			t.Fatalf("the commit moved the log start from %d to %d only", start, now)
		}
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
	if allocs != 0 {
		t.Fatalf("a commit releasing three chunks of records allocated %d objects", allocs)
	}
}

// TestLongLogAppendAllocBudget: a partition's log never copies an
// earlier record. Its 2 000 001st append allocates at most one header
// chunk, and the whole fill allocates the chunks it keeps and hardly
// more — so no append in it can have allocated more than a chunk.
// Before, a slice of 112-byte Records regrew by copy at 1.25×: the fill
// allocated several times what it kept, its last regrowth over 200 MB,
// under the partition lock every producer and fetch waits on.
func TestLongLogAppendAllocBudget(t *testing.T) {
	const n = 2_000_000
	b := New()
	defer b.Close()
	topic, err := b.CreateTopic("alarms", 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{{}} // headers only: no arena bytes
	chunkBytes := uint64(4096 * unsafe.Sizeof(entry{}))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := topic.Append(0, -1, 0, recs); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	fill := after.TotalAlloc - before.TotalAlloc
	kept := uint64(math.Ceil(float64(n)/4096)) * chunkBytes
	runtime.ReadMemStats(&before)
	if _, err := topic.Append(0, -1, 0, recs); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	one := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d appends allocated %d MB for %d MB of header chunks; the next append %d B", n, fill>>20, kept>>20, one)
	if one > chunkBytes {
		t.Fatalf("append %d allocated %d B, budget one chunk (%d B)", n+1, one, chunkBytes)
	}
	if fill > kept+kept/20 {
		t.Fatalf("%d appends allocated %d B, budget the %d B of chunks they keep + 5%%", n, fill, kept)
	}
}
