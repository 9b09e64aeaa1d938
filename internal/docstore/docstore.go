// Package docstore implements the long-term storage substrate of the
// alarm pipeline — the role MongoDB plays in the paper (§4.2, "Batch
// Component / Alarm History").
//
// It is a schema-flexible document store: alarms go in and come out as
// JSON-like documents (nested maps), queried by field path with
// Mongo-style operator filters, optionally accelerated by hash or
// ordered indexes, and aggregated inside the partitions into the
// per-device alarm histograms of §4.1 and the group counts (noisiest
// devices, alarms per ZIP) of §4.2. Schema flexibility is exactly why
// the paper chose a document store: "the structure of an alarm differs
// across sensor types and even across software updates" (§4.3).
//
// Internally each collection is hash-partitioned: documents split
// across P partitions (default one per CPU, minimum two), each with
// its own lock, typed columns (rows.go — a document is stored as a
// row, and built back into a Doc only by the calls that return one)
// and index shards, so inserts and queries on different devices
// proceed in parallel instead of funnelling through one
// collection-wide mutex. A collection may declare a shard key (the
// history uses the device address); documents then route by the hash
// of that field, and queries that pin the shard key by equality touch
// exactly one partition.
//
// The API is the one the pipeline calls — append (Insert, InsertMany,
// InsertRows), age out (SetRetention → PruneExpired → Delete), read
// back (BucketCounts, GroupCounts, TailRows, Aggregate, Find) — plus
// the durability surface of durable.go. There is no update, no
// dump/restore, no index or collection drop, no point lookup or count
// (Find(Doc{"_id": id}) and len(Find(filter)) answer them), and no
// latency model inside the engine (the overload experiment's simulated
// round-trip is core.History's, around the store). Kept on purpose
// although no production path calls them: the one-line accessors, and
// boxed cells with dotted paths (the paper's schema-flexibility
// argument, above).
package docstore

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Common errors.
var (
	ErrBadFilter        = errors.New("docstore: malformed filter")
	ErrIndexExists      = errors.New("docstore: index already exists")
	ErrShardKeyMismatch = errors.New("docstore: collection exists with a different shard key")
)

// Doc is a document as the API takes and returns it — the edge type;
// inside, a partition keeps rows (rows.go). Values are JSON-shaped: string, float64,
// int, int64, bool, time.Time, nil, []any, or nested Doc /
// map[string]any.
type Doc = map[string]any

// DB is a set of named collections sharing a partition count. A DB
// from NewDB lives in memory only; one from OpenDB additionally
// persists every collection to a data directory and recovers it on
// the next open (durable.go).
type DB struct {
	mu          sync.RWMutex
	partitions  int
	collections map[string]*Collection

	// dur is the durable half of the database (data directory, group
	// syncer, checkpointer, sticky error); nil on a memory-only DB.
	dur *durableDB
}

// NewDB creates an empty database with the default partition count
// (one partition per CPU, minimum two).
func NewDB() *DB { return NewDBWithPartitions(0) }

// NewDBWithPartitions creates an empty database whose collections
// split documents across p partitions; p <= 0 selects the default.
func NewDBWithPartitions(p int) *DB {
	if p <= 0 {
		p = defaultPartitions()
	}
	return &DB{partitions: p, collections: make(map[string]*Collection)}
}

func defaultPartitions() int {
	if n := runtime.GOMAXPROCS(0); n > 2 {
		return n
	}
	return 2
}

// Partitions returns the partition count new collections receive.
func (db *DB) Partitions() int { return db.partitions }

// Collection returns the named collection, creating it on first use
// (matching document-store ergonomics). A collection created this way
// has no shard key (documents spread round-robin by id); an existing
// collection is returned as-is, whatever its shard key — use
// CollectionWithShardKey to assert one.
func (db *DB) Collection(name string) *Collection {
	c, _ := db.collection(name, "", false)
	return c
}

// CollectionWithShardKey returns the named collection, creating it
// with the given shard key on first use. Documents route to a
// partition by the hash of the shard-key field, so all documents of
// one device land together and equality queries on the key touch a
// single partition. Returns ErrShardKeyMismatch when the collection
// already exists with a different key.
func (db *DB) CollectionWithShardKey(name, key string) (*Collection, error) {
	return db.collection(name, key, true)
}

func (db *DB) collection(name, key string, wantKey bool) (*Collection, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.collections[name]
	if ok {
		if wantKey && c.shardKey != key {
			return nil, fmt.Errorf("%w: %s has %q, requested %q",
				ErrShardKeyMismatch, name, c.shardKey, key)
		}
		return c, nil
	}
	c = newCollection(name, key, db.partitions)
	if db.dur != nil {
		if err := db.dur.initCollection(db, c); err != nil {
			if wantKey {
				return nil, err
			}
			// Collection() has no error path; the collection serves
			// memory-only and the failure surfaces on Sync/Close.
			db.dur.noteErr(err)
		}
	}
	db.collections[name] = c
	return c, nil
}

// Collection stores documents addressed by an auto-assigned int64 _id,
// hash-partitioned so operations on different partitions proceed in
// parallel.
type Collection struct {
	name     string
	shardKey string   // routing field; "" = route by id
	shard    fieldRef // shardKey's slot
	dict     *fieldDict
	parts    []*partition
	nextID   atomic.Int64

	// idxMu serializes index DDL; idxFields is the collection-level
	// registry (each partition holds the authoritative shard).
	idxMu     sync.Mutex
	idxFields map[string]struct{}

	// dur binds the collection to its on-disk directory on a durable
	// database, nil otherwise. ret holds the retention window
	// (SetRetention); a pointer swap rather than a mutex, so reading
	// it can never interleave with the idxMu-holding DDL paths that
	// persist it into meta.json.
	dur *durableCollection
	ret atomic.Pointer[retentionCfg]

	// aggStats counts how the cached aggregation partials were brought
	// up to date (optimistic.go).
	aggStats aggCounters
}

func newCollection(name, shardKey string, partitions int) *Collection {
	if partitions <= 0 {
		partitions = defaultPartitions()
	}
	c := &Collection{
		name:      name,
		shardKey:  shardKey,
		dict:      new(fieldDict),
		parts:     make([]*partition, partitions),
		idxFields: make(map[string]struct{}),
	}
	if shardKey != "" {
		c.shard = c.dict.ref(shardKey)
	}
	for i := range c.parts {
		c.parts[i] = newPartition(c.dict)
	}
	return c
}

// Len returns the number of stored documents. It is lock-free: each
// partition maintains an atomic document count, so monitoring paths
// (/stats) never contend with the ingest or query locks.
func (c *Collection) Len() int {
	var n int64
	for _, p := range c.parts {
		n += p.size.Load()
	}
	return int(n)
}

// route picks the partition a new row belongs to: by shard-key hash
// when the collection has one and the row carries it, by id otherwise.
//
//alarmvet:hotpath
func (c *Collection) route(slots []int, cells []Cell, id int64) int {
	if c.shardKey != "" {
		for i, s := range slots {
			if s != c.shard.slot {
				continue
			}
			if k, ok := keyForCell(cells[i].descend(c.shard.rest)); ok {
				return int(hashKey(k) % uint64(len(c.parts)))
			}
			break
		}
	}
	return int(uint64(id) % uint64(len(c.parts)))
}

// pruneTo reports the single partition index a filter can be served
// from, which requires an equality condition on the shard key. All
// documents carrying that key value live in the hashed partition, and
// equality cannot match documents lacking the field, so pruning never
// loses matches.
func (c *Collection) pruneTo(f *filter) (int, bool) {
	if c.shardKey == "" {
		return 0, false
	}
	for i := range f.nodes {
		if n := &f.nodes[i]; n.kind == nodePred && n.path == c.shardKey {
			k, ok := n.eqKey()
			return int(hashKey(k) % uint64(len(c.parts))), ok
		}
	}
	return 0, false
}

// targetRange returns the partitions [lo, hi) a filter must visit.
func (c *Collection) targetRange(f *filter) (lo, hi int) {
	if i, ok := c.pruneTo(f); ok {
		return i, i + 1
	}
	return 0, len(c.parts)
}

// forEach runs fn over the partitions of [lo, hi) that busy selects
// (nil: all of them), in partition order. Every partition runs to
// completion (an error in one partition does not spare the others
// their side effects), and the first error in partition order is
// returned. It sets up nothing: it is what every per-batch sweep runs.
func (c *Collection) forEach(lo, hi int, busy func(pi int) bool, fn func(pi int, p *partition) error) error {
	var first error
	for pi := lo; pi < hi; pi++ {
		if busy != nil && !busy(pi) {
			continue
		}
		if err := fn(pi, c.parts[pi]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Insert stores a copy of doc and returns its assigned _id. On a
// durable collection the insert is logged to the owning partition's
// WAL under the same lock that applies it.
func (c *Collection) Insert(doc Doc) int64 { return c.insertDocs(doc) }

// InsertMany stores all docs and returns their ids. The batch is
// grouped by target partition and each partition's lock is acquired
// exactly once, so a batch costs P lock round-trips at most — not one
// per document.
func (c *Collection) InsertMany(docs []Doc) []int64 {
	if len(docs) == 0 {
		return nil
	}
	base := c.insertDocs(docs...)
	ids := make([]int64, len(docs))
	for i := range ids {
		ids[i] = base + int64(i)
	}
	return ids
}

// insertDocs takes the documents apart into a pooled ragged batch and
// inserts it; it returns the first of their consecutive ids.
func (c *Collection) insertDocs(docs ...Doc) int64 {
	rows := raggedPool.Get().(*Rows)
	for _, d := range docs {
		rows.addDoc(c.dict, d)
	}
	base := c.InsertRows(rows)
	rows.Reset()
	raggedPool.Put(rows)
	return base
}

// InsertRows stores a batch of typed rows and returns the first of
// their consecutive ids (row i gets first+i). It is the store's one
// insert path: rows are grouped by target partition, each partition's
// lock is taken once, and on a durable collection each partition's
// share of the batch travels as one WAL frame, encoded straight from
// the cells. The batch is only read; the caller may Reset and refill
// it afterwards.
//
//alarmvet:hotpath
func (c *Collection) InsertRows(rows *Rows) int64 {
	n := rows.n
	base := c.nextID.Add(int64(n)) - int64(n)
	if n == 0 {
		return base
	}
	// Stable counting sort of the row numbers by target partition:
	// afterwards partition pi's rows are order[starts[pi+1]:starts[pi+2]].
	np := len(c.parts)
	rows.part, rows.order, rows.starts = rows.part[:0], rows.order[:0], rows.starts[:0]
	for i := 0; i < np+2; i++ {
		rows.starts = append(rows.starts, 0)
	}
	starts := rows.starts
	for i := 0; i < n; i++ {
		slots, cells := rows.row(i)
		pi := c.route(slots, cells, base+int64(i))
		rows.part = append(rows.part, int32(pi))
		rows.order = append(rows.order, 0)
		starts[pi+1]++
	}
	for pi := 0; pi < np; pi++ {
		starts[pi+1] += starts[pi]
	}
	starts[np+1] = int32(n)
	for i := n - 1; i >= 0; i-- {
		pi := rows.part[i]
		starts[pi+1]--
		rows.order[starts[pi+1]] = int32(i)
	}
	if rows.insert == nil {
		rows.touched = func(pi int) bool { return rows.starts[pi+2] > rows.starts[pi+1] }
		rows.insert = rows.insertShare
	}
	rows.ins = insertRun{c: c, base: base, strict: c.syncEveryAppend()}
	c.forEach(0, np, rows.touched, rows.insert)
	rows.ins.c = nil
	awaitSynced(rows.marks)
	clear(rows.marks)
	rows.marks = rows.marks[:0]
	return base
}

// insertShare stores partition pi's share of the batch, under one write
// lock.
//
//alarmvet:hotpath
func (r *Rows) insertShare(pi int, p *partition) error {
	c, base := r.ins.c, r.ins.base
	group := r.order[r.starts[pi+1]:r.starts[pi+2]]
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, i := range group {
		slots, cells := r.row(int(i))
		p.appendRowLocked(base+int64(i), slots, cells)
	}
	p.restoreOrderLocked()
	if w := p.wal.Load(); w != nil {
		// The partition's whole share of the batch travels as one
		// WAL frame: the write-behind flush upstream is the batching
		// point. Strict mode waits for its fsync once the locks are
		// released (InsertRows).
		seq := w.appendRows(c.dict, r, group, base)
		if r.ins.strict {
			r.marks = append(r.marks, walMark{w, seq})
		}
	}
	return nil
}

// TailRows fills rows (a batch from NewRows, emptied first) with the
// fields of the n most recently inserted documents, in insertion order
// (the oldest of the tail first), without building a document. It
// reads only each partition's last n rows, so the cost is bounded by
// n × partitions however large the collection has grown. n <= 0 returns
// every document.
func (c *Collection) TailRows(n int, rows *Rows) {
	rows.Reset()
	w := len(rows.slots)
	type run struct {
		ids   []int64
		cells []Cell
	}
	runs := make([]run, len(c.parts))
	c.forEach(0, len(c.parts), nil, func(i int, p *partition) error {
		p.mu.RLock()
		defer p.mu.RUnlock()
		lo, hi := 0, len(p.ids)
		if n > 0 && hi > n {
			lo = hi - n
		}
		run := run{ids: append([]int64(nil), p.ids[lo:hi]...), cells: make([]Cell, 0, (hi-lo)*w)}
		for r := lo; r < hi; r++ {
			for _, s := range rows.slots {
				cell := p.col(s).cell(r)
				cell.box = cloneValue(cell.box)
				run.cells = append(run.cells, cell)
			}
		}
		runs[i] = run
		return nil
	})
	// Order every row read by id; the tail of that order is the
	// collection's tail.
	type ref struct{ run, j int }
	var refs []ref
	for i, run := range runs {
		for j := range run.ids {
			refs = append(refs, ref{i, j})
		}
	}
	sort.Slice(refs, func(a, b int) bool { return runs[refs[a].run].ids[refs[a].j] < runs[refs[b].run].ids[refs[b].j] })
	if n > 0 && len(refs) > n {
		refs = refs[len(refs)-n:]
	}
	for _, at := range refs {
		rows.ids = append(rows.ids, runs[at.run].ids[at.j])
		rows.cells = append(rows.cells, runs[at.run].cells[at.j*w:(at.j+1)*w]...)
	}
	rows.n = len(refs)
}

// Find returns copies of all documents matching filter, in insertion
// order: each matching row is built into a document under its
// partition's read lock, and the partitions' rows are merged by id —
// ids come from one collection-wide counter, so ascending id is the
// global insertion order. No match is nil.
func (c *Collection) Find(filter Doc) ([]Doc, error) {
	f := compileFilter(c.dict, filter)
	lo, hi := c.targetRange(f)
	type match struct {
		id  int64
		doc Doc
	}
	var all []match
	err := c.forEach(lo, hi, nil, func(_ int, p *partition) error {
		p.mu.RLock()
		defer p.mu.RUnlock()
		return p.forEachMatch(f, 0, func(r int) { all = append(all, match{p.ids[r], p.doc(r)}) })
	})
	if err != nil || len(all) == 0 {
		return nil, err
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	out := make([]Doc, len(all))
	for i, m := range all {
		out[i] = m.doc
	}
	return out, nil
}

// Delete removes all matching documents and returns how many were
// removed. Each touched partition's lock is taken once, and a partition
// that lost rows logs the delete to its WAL under that lock; in strict
// mode the call returns once an fsync covers those frames.
func (c *Collection) Delete(filter Doc) (int, error) {
	f := compileFilter(c.dict, filter)
	lo, hi := c.targetRange(f)
	total := 0
	var marks []walMark
	err := c.forEach(lo, hi, nil, func(_ int, p *partition) error {
		p.mu.Lock()
		defer p.mu.Unlock()
		n, err := p.deleteLocked(f)
		total += n
		if w := p.wal.Load(); n > 0 && w != nil {
			seq := w.appendOp(walOp{Op: "del", Filter: encodeValue(filter)})
			if c.syncEveryAppend() {
				marks = append(marks, walMark{w, seq})
			}
		}
		return err
	})
	awaitSynced(marks)
	return total, err
}

// cloneValues deep-copies a value slice (scalars copy by assignment).
func cloneValues(vals []any) []any {
	if len(vals) == 0 {
		return nil
	}
	out := make([]any, len(vals))
	for i, v := range vals {
		out[i] = cloneValue(v)
	}
	return out
}

// hashKey hashes an index key for shard routing. Keys normalize
// numbers to float64, so 3 and 3.0 route identically — matching
// equalValues.
func hashKey(k indexKey) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(byte(k.rank))) * prime64
	if k.rank == 3 {
		for i := 0; i < len(k.str); i++ {
			h = (h ^ uint64(k.str[i])) * prime64
		}
		return h
	}
	if k.num == 0 {
		// -0.0 == 0.0 but their bit patterns differ; normalize so
		// equal values always route to the same partition.
		k.num = 0
	}
	bits := math.Float64bits(k.num)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(bits>>(8*i)))) * prime64
	}
	return h
}

// cloneDoc deep-copies a document (maps and slices; scalars are
// immutable).
func cloneDoc(d Doc) Doc {
	out := make(Doc, len(d))
	for k, v := range d {
		out[k] = cloneValue(v)
	}
	return out
}

func cloneValue(v any) any {
	switch t := v.(type) {
	case map[string]any:
		return cloneDoc(t)
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = cloneValue(e)
		}
		return out
	default:
		return v
	}
}

// lookup resolves a dotted field path inside a document.
func lookup(d Doc, path string) (any, bool) {
	cur := any(d)
	for {
		i := strings.IndexByte(path, '.')
		var head string
		if i < 0 {
			head = path
		} else {
			head = path[:i]
		}
		m, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		cur, ok = m[head]
		if !ok {
			return nil, false
		}
		if i < 0 {
			return cur, true
		}
		path = path[i+1:]
	}
}

// setPath writes a value at a dotted path, creating intermediate maps.
func setPath(d Doc, path string, v any) {
	cur := d
	for {
		i := strings.IndexByte(path, '.')
		if i < 0 {
			cur[path] = v
			return
		}
		head := path[:i]
		next, ok := cur[head].(map[string]any)
		if !ok {
			next = make(map[string]any)
			cur[head] = next
		}
		cur = next
		path = path[i+1:]
	}
}

// compareValues orders two document values (see compareCells).
func compareValues(a, b any) int { return compareCells(cellOf(a), cellOf(b)) }

func rank(v any) int {
	switch v.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int, int32, int64, float32, float64:
		return 2
	case string:
		return 3
	case time.Time:
		return 4
	default:
		return 5
	}
}

func toFloat(v any) float64 {
	switch t := v.(type) {
	case int:
		return float64(t)
	case int32:
		return float64(t)
	case int64:
		return float64(t)
	case float32:
		return float64(t)
	case float64:
		return t
	default:
		return 0
	}
}

func comparable2(a, b any) bool { return rank(a) == rank(b) && rank(a) < 5 }
