package docstore

import (
	"fmt"
	"math"
	"sort"
)

// index is one partition's shard of an equality index over a field. It
// keeps a hash map from key to the key's posting list — the rows
// holding it, ascending — maintained incrementally on insert under the
// owning partition's lock.
//
// A posting list is a chain of fixed 64-byte blocks of 15 rows, carved
// from the shard's pages. An insert writes its row into the key's tail
// block in place, and a full tail links the next block: nothing is
// copied and no list regrows, so under the partition lock the steady
// state allocates only a page every ≈ 60 k rows and map growth for new
// keys. Pages are never copied or regrown either; they double from 16
// blocks to 4 096 (256 KB), so a small store stays small. When rows
// move (a re-sort, a delete: gatherLocked) the affected lists are cut
// back to their rows below the first moved one — their blocks stay
// chained — and refilled in place: the upkeep is the rows moved, plus a
// walk down the chain of a list that loses more than its tail block. A
// list cut to nothing hands its chain to the shard's free chain, and
// its key leaves the map.
type index struct {
	field string
	slot  int
	eq    map[indexKey]postings
	// pages hold the blocks: block b is pages[b>>pageShift][b&pageMask].
	// used counts the blocks carved from the last page; free heads the
	// chain of blocks given back by emptied lists (noBlock: none).
	pages [][]block
	used  int32
	free  int32
}

const (
	blockRows      = 15 // rows per posting block: 15 int32 rows + next = 64 bytes
	pageShift      = 12 // a full page holds 1 << pageShift blocks, ≈ 61 k rows
	pageMask       = 1<<pageShift - 1
	firstPageShift = 4 // the first page holds 16 blocks; each next one twice the last's
	noBlock        = -1
)

// block is one link of a posting list's chain.
type block struct {
	rows [blockRows]int32
	next int32 // the chain's next block, noBlock at its end
}

// postings is one key's posting list: n rows, in the chain from block
// head to block tail, every block but the tail full. Blocks past the
// tail, left over from a cut, stay chained for the refill.
type postings struct {
	head, tail, n int32
}

// indexKey is the comparable form of an indexed value: the value's
// rank plus either its numeric or string form.
type indexKey struct {
	rank int
	num  float64
	str  string
}

// keyForCell reports false for a value no key stands for: an absent
// cell, and NaN, which equals nothing.
func keyForCell(c Cell) (indexKey, bool) {
	switch c.rank() {
	case 2:
		f := c.Num()
		return indexKey{rank: 2, num: f}, !math.IsNaN(f)
	case 3:
		return indexKey{rank: 3, str: c.str}, true
	default:
		return indexKey{}, false
	}
}

// CreateIndex builds an equality index over the given field: one shard
// per partition, each built and maintained under its partition's own
// lock so index upkeep never serializes unrelated partitions. On a
// durable collection the index registers in meta.json and is rebuilt
// on recovery.
func (c *Collection) CreateIndex(field string) error {
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	if err := c.addIndexLocked(field); err != nil || c.dur == nil {
		return err
	}
	// idxMu is held, so the index list is read inline instead of
	// through Indexes().
	return c.dur.writeMeta(c.metaSnapshot(c.indexesLocked()))
}

// addIndex builds the index without touching meta.json — the recovery
// path, which rebuilds indexes meta.json already lists.
func (c *Collection) addIndex(field string) error {
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	return c.addIndexLocked(field)
}

func (c *Collection) addIndexLocked(field string) error {
	if _, ok := c.idxFields[field]; ok {
		return fmt.Errorf("%w: %s", ErrIndexExists, field)
	}
	for _, p := range c.parts {
		p.mu.Lock()
		idx := &index{field: field, slot: c.dict.ref(field), eq: make(map[indexKey]postings), free: noBlock}
		for r := range p.ids.Len() {
			idx.add(p, r)
		}
		p.indexes[field] = idx
		p.mu.Unlock()
	}
	c.idxFields[field] = struct{}{}
	return nil
}

// Indexes returns the indexed fields.
func (c *Collection) Indexes() []string {
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	return c.indexesLocked()
}

func (c *Collection) indexesLocked() []string {
	out := make([]string, 0, len(c.idxFields))
	for f := range c.idxFields {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

func (x *index) block(b int32) *block { return &x.pages[b>>pageShift][b&pageMask] }

// add appends row r — past every row the shard holds — to its key's
// list.
//
//alarmvet:hotpath
func (x *index) add(p *partition, r int) {
	k, ok := keyForCell(p.cell(r, x.slot))
	if !ok {
		return
	}
	pl, existed := x.eq[k]
	switch {
	case !existed:
		pl.head = x.carve()
		pl.tail = pl.head
	case pl.n%blockRows == 0: // the tail is full: on to the next block
		t := x.block(pl.tail)
		if t.next == noBlock {
			t.next = x.carve() // pages never move, so t stays valid
		}
		pl.tail = t.next
	}
	x.block(pl.tail).rows[pl.n%blockRows] = int32(r)
	pl.n++
	x.eq[k] = pl
}

// carve returns a block to end a chain with: the free chain's first,
// else the last page's next unused one.
func (x *index) carve() int32 {
	b := x.free
	if b != noBlock {
		x.free = x.block(b).next
	} else {
		if len(x.pages) == 0 || int(x.used) == len(x.pages[len(x.pages)-1]) {
			x.newPage()
		}
		b = int32(len(x.pages)-1)<<pageShift | x.used
		x.used++
	}
	x.block(b).next = noBlock
	return b
}

// newPage adds a page to carve blocks from: 16 blocks the first time,
// then twice the last page's, up to 1 << pageShift.
func (x *index) newPage() {
	n := 1 << firstPageShift
	if len(x.pages) > 0 {
		n = min(2*len(x.pages[len(x.pages)-1]), 1<<pageShift)
	}
	x.pages = append(x.pages, make([]block, n))
	x.used = 0
}

// nextBlock returns the rows of pl's first block and advances pl past
// it, nil once pl is empty: walking a copy of a key's postings this way
// reads its rows in ascending order.
//
//alarmvet:hotpath
func (x *index) nextBlock(pl *postings) []int32 {
	if pl.n <= 0 {
		return nil
	}
	b := x.block(pl.head)
	m := min(pl.n, blockRows)
	pl.head, pl.n = b.next, pl.n-m
	return b.rows[:m]
}

// cut forgets the rows from lo on — the tails of their keys' ascending
// lists — ahead of a gather that moves them. A list keeps its rows
// below lo and its blocks chained for the refill; a list left empty
// frees its chain, and its key leaves the map.
func (x *index) cut(p *partition, lo int) {
	for r, n := lo, p.ids.Len(); r < n; r++ {
		k, ok := keyForCell(p.cell(r, x.slot))
		if !ok {
			continue
		}
		pl, ok := x.eq[k]
		if !ok || int(x.block(pl.tail).rows[(pl.n-1)%blockRows]) < lo {
			continue // cut already
		}
		if pl = x.cutList(pl, lo); pl.n == 0 {
			x.freeChain(pl.head)
			delete(x.eq, k)
			continue
		}
		x.eq[k] = pl
	}
}

// cutList returns pl holding only its rows below lo. When the first row
// at or past lo is in the tail block, that is all it looks at; only a
// list losing more than its tail block is walked from its head.
func (x *index) cutList(pl postings, lo int) postings {
	at, prev := pl.tail, int32(noBlock)
	below := (pl.n - 1) / blockRows * blockRows // rows in the blocks before at
	if int(x.block(pl.tail).rows[0]) >= lo {
		at, below = pl.head, 0
		for at != pl.tail {
			b := x.block(at)
			if int(b.rows[blockRows-1]) >= lo {
				break
			}
			prev, at, below = at, b.next, below+blockRows
		}
	}
	rows := x.block(at).rows[:min(pl.n-below, blockRows)]
	i := int32(sort.Search(len(rows), func(i int) bool { return int(rows[i]) >= lo }))
	pl.n = below + i
	if i == 0 && prev != noBlock {
		at = prev // at keeps no row: the full block before it is the tail
	}
	pl.tail = at
	return pl
}

// freeChain hands the chain from block b on to the free chain.
func (x *index) freeChain(b int32) {
	end := x.block(b)
	for end.next != noBlock {
		end = x.block(end.next)
	}
	end.next, x.free = x.free, b
}
