package docstore

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"alarmverify/internal/lane"
)

// partition is one shard of a collection: its own lock, an id column
// in ascending order, one typed column per field slot (rows.go), and
// index shards over row numbers. All methods suffixed Locked require
// the caller to hold the appropriate mu mode.
type partition struct {
	mu   sync.RWMutex
	dict *fieldDict
	// ids holds the document id of every row. Ids are issued in
	// increasing order, so the column is ascending — id → row is a
	// binary search and row order is insertion order. Concurrent
	// batches can arrive out of order; sortFrom marks the first row
	// such a batch displaced, and the insert path merges the tail back
	// into order before it releases the lock.
	//
	// mu guards ids, cols, indexes and slabs: they change only in a
	// write section, so a reader under the read lock sees whole rows.
	ids lane.Lane[int64] //alarmvet:guardedby mu
	// cols holds the columns by slot; nil until the partition sees the
	// field.
	cols     []*column //alarmvet:guardedby mu
	unsorted bool
	sortFrom int
	indexes  map[string]*index //alarmvet:guardedby mu

	// slabs hold the blocks the columns, their lanes and the id lane
	// are carved from (rows.go).
	slabs slabs //alarmvet:guardedby mu

	// size mirrors ids.len() so Len() needs no lock.
	size atomic.Int64

	// agg holds the partition's cached aggregation partials by plan
	// signature (optimistic.go). Readers reach it under mu.RLock and
	// share it through cacheMu; a writer, alone under mu.Lock, walks it
	// without.
	cacheMu sync.Mutex
	agg     map[string]*aggEntry

	// wal is the partition's current write-ahead log on a durable
	// database, nil otherwise. Mutating paths append under the write
	// lock; checkpoints swap it under the same lock (so an append goes
	// entirely to the old or the new epoch), while the group syncer
	// loads it locklessly. walEpoch is only touched by the checkpoint
	// holding ckptTurn (under the write lock for the swap itself).
	wal      atomic.Pointer[walWriter]
	walEpoch uint64
}

func newPartition(dict *fieldDict) *partition {
	return &partition{dict: dict, indexes: make(map[string]*index)}
}

// slotID is the pseudo-slot of the _id field, served from the id
// column.
const slotID = -1

// ref returns the slot a partition reads a field from: slotID for _id.
func (d *fieldDict) ref(field string) int {
	if field == "_id" {
		return slotID
	}
	return d.slot(field)
}

func (p *partition) col(slot int) *column {
	if slot < len(p.cols) {
		return p.cols[slot]
	}
	return nil
}

// cell reads row r's cell of a slot, typed. Caller holds at least a read
// lock.
func (p *partition) cell(r, slot int) Cell {
	if slot == slotID {
		return Int64(p.ids.At(r))
	}
	return p.col(slot).cell(r)
}

// rowOf returns the row holding id.
func (p *partition) rowOf(id int64) (int, bool) {
	n := p.ids.Len()
	r := sort.Search(n, func(i int) bool { return p.ids.At(i) >= id })
	return r, r < n && p.ids.At(r) == id
}

// appendRowLocked appends one row: the id, then each present cell into
// its slot's column, then the index shards. Every insert — typed or
// document, live or replayed — ends here, once the field dictionary has
// admitted its batch. Caller holds the write lock and, after the last
// append of its batch (ascending ids), calls restoreOrderLocked.
//
//alarmvet:hotpath
func (p *partition) appendRowLocked(id int64, slots []int, cells []Cell) {
	r := p.ids.Len()
	if r > 0 && id < p.ids.At(r-1) && !p.unsorted {
		// The batch's first id is its smallest: everything before the
		// first row above it is already in place.
		p.unsorted = true
		p.sortFrom, _ = p.rowOf(id)
	}
	p.ids.Push(id, &p.slabs.ids)
	for i, s := range slots {
		if cells[i].kind == kindAbsent {
			continue
		}
		p.colLocked(s).set(r, cells[i], &p.slabs)
	}
	p.size.Add(1)
	for _, idx := range p.indexes {
		idx.add(p, r)
	}
}

// restoreOrderLocked merges a batch that arrived out of order (two
// concurrent batches whose id ranges and lock acquisitions
// interleaved) back into id order: only the rows from the first
// displaced one on move. A no-op in the common case.
func (p *partition) restoreOrderLocked() {
	if !p.unsorted {
		return
	}
	p.unsorted = false
	src := make([]int, p.ids.Len()-p.sortFrom)
	for i := range src {
		src[i] = p.sortFrom + i
	}
	sort.SliceStable(src, func(i, j int) bool { return p.ids.At(src[i]) < p.ids.At(src[j]) })
	p.gatherLocked(p.sortFrom, src)
}

// gatherLocked rebuilds the partition's tail: rows before lo stay, new
// row lo+i is old row src[i] (every src[i] >= lo), and rows past the
// end of src are dropped. It is the one primitive behind re-sorting
// and compaction; the index shards cut their lists back to the rows
// before lo and refill them with the rows that moved, and the cached
// partials that had folded a row at or past lo start over.
func (p *partition) gatherLocked(lo int, src []int) {
	p.invalidatePartialsLocked(lo)
	for _, idx := range p.indexes {
		idx.cut(p, lo)
	}
	old := p.ids.Share() // the truncation and the pushes write no row it reads
	p.ids.Truncate(lo, &p.slabs.ids)
	for _, r := range src {
		p.ids.Push(old.At(r), &p.slabs.ids)
	}
	for _, col := range p.cols {
		if col != nil {
			col.gather(lo, src, &p.slabs)
		}
	}
	for _, idx := range p.indexes {
		for r, n := lo, p.ids.Len(); r < n; r++ {
			idx.add(p, r)
		}
	}
}

// forEachMatch invokes fn for every row from row from on that matches
// the filter, in ascending row (= id) order. It is the one scan loop
// every read and write path shares: when the filter pins an indexed
// field by equality it examines only the rows the key's posting blocks
// name, skipping the blocks wholly below from, and checks them against
// the filter's other nodes only (a key is equal under $eq to exactly
// the values it keys); otherwise it examines every row. Caller holds at
// least a read lock; fn must not mutate the partition (write paths
// collect the rows first).
func (p *partition) forEachMatch(f *filter, from int, fn func(r int)) error {
	for i := range f.nodes {
		n := &f.nodes[i]
		idx := p.indexes[n.field]
		if idx == nil {
			continue
		}
		k, ok := n.eqKey()
		if !ok {
			continue
		}
		pl := idx.eq[k]
		for rows := idx.nextBlock(&pl); rows != nil; rows = idx.nextBlock(&pl) {
			if int(rows[len(rows)-1]) < from {
				continue
			}
			for _, r := range rows {
				if int(r) >= from {
					if err := p.visitRow(f, i, int(r), fn); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	for r, n := from, p.ids.Len(); r < n; r++ {
		if err := p.visitRow(f, -1, r, fn); err != nil {
			return err
		}
	}
	return nil
}

// visitRow invokes fn for row r if it matches the filter, node skip aside.
func (p *partition) visitRow(f *filter, skip, r int, fn func(r int)) error {
	ok, err := f.match(p, r, skip)
	if ok && err == nil {
		fn(r)
	}
	return err
}

// applyLocked replays one logged delete frame. Recovery refuses the log
// rather than skip a frame it cannot apply: an op this store does not
// write, or a delete of another shape than deleteWhere logs. Caller
// holds the write lock.
func (p *partition) applyLocked(payload []byte) error {
	var head struct {
		Op string `json:"op"`
	}
	if json.Unmarshal(payload, &head) != nil {
		return errBadFrame
	}
	if head.Op != "del" {
		return fmt.Errorf("unknown wal op %q", head.Op)
	}
	var op walOp
	if err := json.Unmarshal(payload, &op); err != nil {
		return fmt.Errorf("%w: wal del: %v", errBadFrame, err)
	}
	conds, err := op.conds()
	if err != nil {
		return err
	}
	_, err = p.deleteLocked(compileFilter(p.dict, conds))
	return err
}

// colLocked returns the slot's column, creating it the first time the
// partition sees the field: carved from the column slab, with cols
// grown to the dictionary's size in one step and the slabs sized to its
// fields. Caller holds the write lock.
func (p *partition) colLocked(slot int) *column {
	if slot < len(p.cols) && p.cols[slot] != nil {
		return p.cols[slot]
	}
	if n := p.slabs.sizeTo(p.dict); n > len(p.cols) {
		p.cols = append(p.cols, make([]*column, n-len(p.cols))...)
	}
	c := &p.slabs.columns.Carve(1)[:1][0]
	p.cols[slot] = c
	return c
}

// deleteLocked removes the partition's matching rows and compacts the
// columns. Caller holds the write lock.
func (p *partition) deleteLocked(f *filter) (int, error) {
	var rows []int
	err := p.forEachMatch(f, 0, func(r int) { rows = append(rows, r) })
	if len(rows) == 0 {
		return 0, err
	}
	keep := make([]int, 0, p.ids.Len()-rows[0]-len(rows))
	for r, next := rows[0], 0; r < p.ids.Len(); r++ {
		if next < len(rows) && rows[next] == r {
			next++
			continue
		}
		keep = append(keep, r)
	}
	p.gatherLocked(rows[0], keep)
	p.size.Add(-int64(len(rows)))
	return len(rows), err
}
