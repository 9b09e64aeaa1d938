//go:build !race

package docstore

import (
	"fmt"
	"runtime"
	"testing"
)

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
	x := &index{ref: c.dict.ref("k"), eq: make(map[indexKey]postings), free: noBlock}
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
	allocs, grown := after.Mallocs-before.Mallocs, len(x.pages)-pages
	t.Logf("%d rows appended: %d allocations, %d new pages", rows, allocs, grown)
	if allocs > uint64(2*grown) { // a page, and the page list's growth
		t.Fatalf("%d rows appended: %d allocations for %d new pages, budget 0 a row beyond them", rows, allocs, grown)
	}
}
