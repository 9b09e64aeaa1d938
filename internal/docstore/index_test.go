package docstore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// checkPostings compares every posting list of every index shard with
// a scan of its partition's rows, and checks the chains' shape: the
// tail where the row count puts it, and no block in two chains, the
// free chain included.
func checkPostings(t *testing.T, c *Collection, tag string) {
	t.Helper()
	for pi, p := range c.parts {
		p.mu.RLock()
		for field, x := range p.indexes {
			want := make(map[indexKey][]int32)
			for r := range p.ids.Len() {
				if k, ok := keyForCell(p.cell(r, x.slot)); ok {
					want[k] = append(want[k], int32(r))
				}
			}
			if len(want) != len(x.eq) {
				t.Fatalf("%s: partition %d index %s holds %d keys, the rows %d", tag, pi, field, len(x.eq), len(want))
			}
			owner := make(map[int32]string)
			claim := func(b int32, who string) {
				if prev, ok := owner[b]; ok {
					t.Fatalf("%s: partition %d index %s: block %d in %s and %s", tag, pi, field, b, prev, who)
				}
				owner[b] = who
			}
			for k, pl := range x.eq {
				var got []int32
				walk := pl
				for rows := x.nextBlock(&walk); rows != nil; rows = x.nextBlock(&walk) {
					got = append(got, rows...)
				}
				if !slices.Equal(got, want[k]) {
					t.Fatalf("%s: partition %d index %s key %v: postings %v, scan %v", tag, pi, field, k, got, want[k])
				}
				who, at := fmt.Sprint(k), -1
				for b, pos := pl.head, 0; b != noBlock; b, pos = x.block(b).next, pos+1 {
					claim(b, who)
					if b == pl.tail {
						at = pos
					}
				}
				if at != int(pl.n-1)/blockRows {
					t.Fatalf("%s: partition %d index %s key %v: %d rows, tail at block %d", tag, pi, field, k, pl.n, at)
				}
			}
			for b := x.free; b != noBlock; b = x.block(b).next {
				claim(b, "the free chain")
			}
			carved := int(x.used)
			for _, pg := range x.pages[:max(len(x.pages)-1, 0)] {
				carved += len(pg)
			}
			if len(owner) != carved {
				t.Fatalf("%s: partition %d index %s: %d blocks carved, %d in a chain", tag, pi, field, carved, len(owner))
			}
		}
		p.mu.RUnlock()
	}
}

// checkAsks runs indexed asks from rows on, just before and just past
// the rows at block boundaries of each key's list (and from a few
// others), and compares each with a scan.
func checkAsks(t *testing.T, c *Collection, r *rand.Rand, keys []string, tag string) {
	t.Helper()
	kSlot, tsSlot := c.dict.ref("k"), c.dict.ref("ts")
	for pi, p := range c.parts {
		p.mu.RLock()
		ask := func(filter []Cond, from int, want func(r int) bool) {
			var got, scan []int
			if err := p.forEachMatch(compileFilter(c.dict, filter), from, func(r int) { got = append(got, r) }); err != nil {
				t.Fatal(err)
			}
			for r := from; r < p.ids.Len(); r++ {
				if want(r) {
					scan = append(scan, r)
				}
			}
			if !slices.Equal(got, scan) {
				t.Fatalf("%s: partition %d: %v from row %d: index %v, scan %v", tag, pi, filter, from, got, scan)
			}
		}
		for _, key := range keys {
			var rows []int
			for r := range p.ids.Len() {
				if p.cell(r, kSlot).Str() == key {
					rows = append(rows, r)
				}
			}
			froms := []int{0, p.ids.Len()}
			for _, i := range []int{0, 1, 13, 14, 15, 16, 29, 30, 31, 44, 45} {
				if i < len(rows) {
					froms = append(froms, rows[i]-1, rows[i], rows[i]+1)
				}
			}
			for _, from := range froms {
				from = max(from, 0)
				ask([]Cond{eq("k", key)}, from, func(r int) bool { return p.cell(r, kSlot).Str() == key })
			}
		}
		for i := 0; i < 4; i++ {
			lo, from := float64(r.Intn(400)), r.Intn(p.ids.Len()+1)
			ask([]Cond{cond("ts", "$gte", lo)}, from, func(r int) bool { return p.cell(r, tsSlot).Num() >= lo })
		}
		p.mu.RUnlock()
	}
}

// TestPostingListsMatchScan is the posting-list property test: keys of
// 1, 14, 15, 16, 30 and 31 rows — one short of a block, a block, one
// past, two blocks and one past — then random appends, out-of-order
// batches (the lists cut back and refilled), deletes of keys and of
// ranges, and retention prunes. After every step each list must equal
// a scan of the rows, block for block, and every indexed ask from a
// row on or beside a block boundary must answer what a scan does.
func TestPostingListsMatchScan(t *testing.T) {
	sizes := []int{1, 14, 15, 16, 30, 31}
	var keys []string
	for _, n := range sizes {
		keys = append(keys, fmt.Sprintf("n%d", n))
	}
	keys = append(keys, "x0", "x1", "x2")
	for _, parts := range []int{1, 3} {
		t.Run(fmt.Sprintf("partitions=%d", parts), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(25 + parts)))
			c, err := NewDBWithPartitions(parts).CollectionWithShardKey("x", "k")
			if err != nil {
				t.Fatal(err)
			}
			indexes := func() {
				for _, f := range []string{"k", "ts"} {
					if err := c.CreateIndex(f); err != nil {
						t.Fatal(err)
					}
				}
			}
			if parts == 1 {
				indexes() // maintained on insert from the first row
			}
			seq := 0.0
			gen := func(n int) []Doc {
				docs := make([]Doc, n)
				for i := range docs {
					seq++
					docs[i] = Doc{"k": keys[r.Intn(len(keys))], "ts": seq}
				}
				return docs
			}
			var first []Doc
			for i, n := range sizes {
				for j := 0; j < n; j++ {
					first = append(first, Doc{"k": keys[i]})
				}
			}
			r.Shuffle(len(first), func(i, j int) { first[i], first[j] = first[j], first[i] })
			for i := range first {
				seq++
				first[i]["ts"] = seq
			}
			c.InsertMany(first)
			if parts != 1 {
				indexes() // built over the stored rows
			}
			checkPostings(t, c, "seeded")
			checkAsks(t, c, r, keys, "seeded")
			for step := 0; step < 60; step++ {
				var tag string
				switch op := r.Intn(5); op {
				case 0, 1:
					c.InsertMany(gen(1 + r.Intn(40)))
					tag = "append"
				case 2:
					insertOutOfOrder(c, gen(1+r.Intn(20)), gen(1+r.Intn(20)), func() {})
					tag = "out-of-order batch"
				case 3:
					if r.Intn(2) == 0 {
						_, err = c.deleteWhere([]Cond{eq("k", keys[r.Intn(len(keys))])})
						tag = "delete a key"
					} else {
						lo := r.Float64() * seq
						_, err = c.deleteWhere([]Cond{cond("ts", "$gte", lo), cond("ts", "$lt", lo+10)})
						tag = "delete a range"
					}
				default:
					c.SetRetention("ts", 100*time.Second)
					_, err = c.PruneExpired(time.Unix(int64(seq)+100-int64(r.Intn(150)), 0))
					tag = "prune"
				}
				if err != nil {
					t.Fatal(err)
				}
				tag = fmt.Sprintf("step %d (%s)", step, tag)
				checkPostings(t, c, tag)
				checkAsks(t, c, r, keys, tag)
			}
		})
	}
}
