package docstore

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// index is one partition's shard of a secondary index over a field
// path. It keeps a hash map from key to the rows holding it (ascending
// row numbers) for equality lookups and a sorted key list for range
// scans; both are maintained incrementally on insert under the owning
// partition's lock and rebuilt when rows move (delete, re-sort).
type index struct {
	field string
	ref   fieldRef
	eq    map[indexKey][]int32
	// keys holds the distinct index keys in sorted order for range
	// queries; rebuilt lazily when dirty. keyMu serializes rebuilds,
	// which may run under the partition's read lock.
	keyMu sync.Mutex
	keys  []indexKey
	dirty bool
}

// indexKey is the comparable form of an indexed value: the value's
// rank plus either its numeric or string form.
type indexKey struct {
	rank int
	num  float64
	str  string
}

func keyFor(v any) (indexKey, bool) { return keyForCell(cellOf(v)) }

func keyForCell(c Cell) (indexKey, bool) {
	switch r := c.rank(); r {
	case 2:
		return indexKey{rank: 2, num: c.Num()}, true
	case 3:
		return indexKey{rank: 3, str: c.Str()}, true
	case 1:
		k := indexKey{rank: 1}
		if c.truth() {
			k.num = 1
		}
		return k, true
	default:
		return indexKey{}, false
	}
}

func (k indexKey) less(o indexKey) bool {
	if k.rank != o.rank {
		return k.rank < o.rank
	}
	if k.rank == 3 {
		return k.str < o.str
	}
	return k.num < o.num
}

// CreateIndex builds an index over the given field path: one shard
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
		idx := &index{field: field, ref: c.dict.ref(field)}
		idx.rebuildLocked(p)
		p.indexes[field] = idx
		p.mu.Unlock()
	}
	c.idxFields[field] = struct{}{}
	return nil
}

// Indexes returns the indexed field paths.
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

func (x *index) add(p *partition, r int) {
	k, ok := keyForCell(p.cell(r, x.ref))
	if !ok {
		return
	}
	rows, existed := x.eq[k]
	if !existed {
		x.dirty = true
	}
	x.eq[k] = append(rows, int32(r)) // rows are added in ascending order: the list stays sorted
}

// rebuildLocked re-derives the shard from the partition's rows.
func (x *index) rebuildLocked(p *partition) {
	x.eq = make(map[indexKey][]int32)
	x.dirty = true
	for r := range p.ids {
		x.add(p, r)
	}
}

// dropFrom forgets the rows from lo on — the tails of their keys'
// ascending lists — ahead of a gather that moves them.
func (x *index) dropFrom(p *partition, lo int) {
	for r := lo; r < len(p.ids); r++ {
		k, ok := keyForCell(p.cell(r, x.ref))
		if !ok {
			continue
		}
		rows := x.eq[k]
		for len(rows) > 0 && int(rows[len(rows)-1]) >= lo {
			rows = rows[:len(rows)-1]
		}
		if x.eq[k] = rows; len(rows) == 0 {
			delete(x.eq, k)
			x.dirty = true
		}
	}
}

// lookupRange serves operator maps consisting solely of range bounds
// ($gt/$gte/$lt/$lte), returning the rows at or past row from. It
// reports ok=false when the operator map contains anything it cannot
// serve, in which case the caller falls back to a scan.
func (x *index) lookupRange(cond any, from int) ([]int32, bool) {
	ops, isOps := cond.(map[string]any)
	if !isOps {
		return nil, false
	}
	lo, hi := indexKey{rank: -1}, indexKey{rank: 99}
	loExcl, hiExcl := false, false
	for op, arg := range ops {
		k, ok := keyFor(arg)
		if !ok {
			return nil, false
		}
		switch op {
		case "$gt":
			lo, loExcl = k, true
		case "$gte":
			lo, loExcl = k, false
		case "$lt":
			hi, hiExcl = k, true
		case "$lte":
			hi, hiExcl = k, false
		default:
			return nil, false
		}
	}
	x.rebuildKeys()
	start := sort.Search(len(x.keys), func(i int) bool {
		if loExcl {
			return lo.less(x.keys[i])
		}
		return !x.keys[i].less(lo)
	})
	var out []int32
	for i := start; i < len(x.keys); i++ {
		k := x.keys[i]
		if hiExcl {
			if !k.less(hi) {
				break
			}
		} else if hi.less(k) {
			break
		}
		out = append(out, rowsFrom(x.eq[k], from)...)
	}
	slices.Sort(out) // ascending rows = ascending ids, whatever the key order
	return out, true
}

func (x *index) rebuildKeys() {
	x.keyMu.Lock()
	defer x.keyMu.Unlock()
	if !x.dirty && x.keys != nil {
		return
	}
	x.keys = x.keys[:0]
	for k := range x.eq {
		x.keys = append(x.keys, k)
	}
	sort.Slice(x.keys, func(i, j int) bool { return x.keys[i].less(x.keys[j]) })
	x.dirty = false
}
