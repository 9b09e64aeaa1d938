// Package docstore implements the long-term storage substrate of the
// alarm pipeline — the role MongoDB plays in the paper (§4.2, "Batch
// Component / Alarm History").
//
// The paper chose a document store because "the structure of an alarm
// differs across sensor types and even across software updates"
// (§4.3). This store serves that flexibility with flat typed fields: a
// collection's field dictionary names a new top-level field the first
// time a document carries it, and a row without a field simply has no
// cell there. A field holds one kind — string, float64, int64 or int,
// fixed by its first value — so every column stays typed. Reads filter
// with conjunctions of typed comparisons (Cond), optionally served by
// an equality index, and aggregate inside the partitions into the
// per-device alarm histograms of §4.1 and the group counts (noisiest
// devices, alarms per ZIP) of §4.2.
//
// Internally each collection is hash-partitioned: documents split
// across P partitions (default one per CPU, minimum two), each with
// its own lock, typed columns (rows.go — a document is stored as a
// row) and index shards, so inserts and queries on different devices
// proceed in parallel instead of funnelling through one
// collection-wide mutex. A collection may declare a shard key (the
// history uses the device address); documents then route by the hash
// of that field, and queries that pin the shard key by equality touch
// exactly one partition.
//
// The API is the one the pipeline calls — append (Insert, InsertRows),
// age out (SetRetention → PruneExpired), read back (BucketCounts,
// GroupCounts, TailRows) — plus the durability surface of durable.go.
// InsertMany and Aggregate, the document-shaped batch insert and
// pipeline read, are called only by the benchmark harness (bench/),
// whose layer timings (docstore.insert_*, docstore.aggregate_*) they
// stay for: ROADMAP item 1(j). There is no update, no point
// lookup, no dump/restore, no index or collection drop, and no latency
// model inside the engine (the overload experiment's simulated
// round-trip is core.History's, around the store).
package docstore

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Common errors.
var (
	ErrBadFilter        = errors.New("docstore: malformed filter")
	ErrIndexExists      = errors.New("docstore: index already exists")
	ErrShardKeyMismatch = errors.New("docstore: collection exists with a different shard key")
)

// Doc is a document as Insert takes it and Aggregate returns it — the
// edge type; inside, a partition keeps rows (rows.go). A Doc is flat:
// each top-level value is a string, float64, int64 or int.
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
	shardKey string // routing field; "" = route by id
	shard    int    // shardKey's slot
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
			if s != c.shard {
				continue
			}
			if k, ok := keyForCell(cells[i]); ok {
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
		if n := &f.nodes[i]; n.field == c.shardKey {
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
// WAL under the same lock that applies it. A value the store cannot
// hold — of a Go type outside string, float64, int64 and int, or of
// another kind than its field already holds — is a caller bug: Insert
// panics, naming the field, and stores nothing.
func (c *Collection) Insert(doc Doc) int64 { return c.insertDocs(doc) }

// InsertMany stores all docs and returns their ids. The batch is
// grouped by target partition and each partition's lock is acquired
// exactly once, so a batch costs P lock round-trips at most — not one
// per document. It panics like Insert, before storing any of the
// batch.
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
// it afterwards. A cell of another kind than its field already holds
// (or than an earlier row of the batch gave it) is a caller bug:
// InsertRows panics, naming the field and both kinds, and stores none
// of the batch.
//
//alarmvet:hotpath
func (c *Collection) InsertRows(rows *Rows) int64 {
	if err := c.dict.admit(rows); err != nil {
		panic(err)
	}
	n := rows.n
	base := c.nextID.Add(int64(n)) - int64(n)
	if n == 0 {
		return base
	}
	// Stable counting sort of the row numbers by target partition:
	// afterwards partition pi's rows are order[starts[pi+1]:starts[pi+2]].
	// The scratch is sized in one step: a batch that outgrows it costs
	// one allocation per slice, not one per doubling.
	np := len(c.parts)
	rows.part = slices.Grow(rows.part[:0], n)[:n]
	rows.order = slices.Grow(rows.order[:0], n)[:n]
	rows.starts = slices.Grow(rows.starts[:0], np+2)[:np+2]
	starts := rows.starts
	clear(starts)
	for i := 0; i < n; i++ {
		slots, cells := rows.row(i)
		pi := c.route(slots, cells, base+int64(i))
		rows.part[i] = int32(pi)
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
		// WAL frame: the caller's batch (a persist stage's
		// micro-batch) is the batching point. Strict mode waits for
		// its fsync once the locks are released (InsertRows).
		seq := w.appendRows(c.dict, r, group, base)
		if r.ins.strict {
			r.marks = append(r.marks, walMark{w, seq})
		}
	}
	return nil
}

// TailRows fills rows (a batch from NewRows, emptied first) with the
// fields of the n most recently inserted documents, in insertion order
// (the oldest of the tail first), without building a document. Ids
// ascend within a partition, so the collection's tail is the
// partitions' tails merged by id: with every partition read-locked,
// the merge walks back from the newest row and copies exactly the n
// rows it picks. The cost is n rows however large the collection has
// grown and however many partitions hold it, and the rows are one
// snapshot of the collection. n <= 0 returns every document.
func (c *Collection) TailRows(n int, rows *Rows) {
	rows.Reset()
	c.readLocked(0, func() { c.tailLocked(n, rows) })
}

// readLocked runs fn with the read locks of partitions [i, P) held. It
// takes them in ascending order, and no writer holds one partition's
// lock while it waits for another's, so no cycle can form.
func (c *Collection) readLocked(i int, fn func()) {
	if i == len(c.parts) {
		fn()
		return
	}
	p := c.parts[i]
	p.mu.RLock()
	defer p.mu.RUnlock()
	c.readLocked(i+1, fn)
}

// tailLocked is TailRows' merge. Caller holds every partition's read
// lock.
func (c *Collection) tailLocked(n int, rows *Rows) {
	// ends[pi] is one past partition pi's newest row not yet picked.
	ends := rows.ends[:0]
	total := 0
	for _, p := range c.parts {
		ends = append(ends, p.ids.Len())
		total += p.ids.Len()
	}
	rows.ends = ends
	if n <= 0 || n > total {
		n = total
	}
	w := len(rows.slots)
	rows.ids = slices.Grow(rows.ids, n)[:n]
	rows.cells = slices.Grow(rows.cells, n*w)[:n*w]
	rows.n = n
	for j := n - 1; j >= 0; j-- {
		pick, id := -1, int64(0)
		for pi, end := range ends {
			if end == 0 {
				continue
			}
			if v := c.parts[pi].ids.At(end - 1); pick < 0 || v > id {
				pick, id = pi, v
			}
		}
		p, r := c.parts[pick], ends[pick]-1
		ends[pick] = r
		rows.ids[j] = id
		row := rows.cells[j*w : (j+1)*w]
		for i, s := range rows.slots {
			row[i] = p.col(s).cell(r)
		}
	}
}

// deleteWhere removes the documents matching conds and returns how
// many were removed — the retention prune's delete. Each touched
// partition's lock is taken once, and a partition that lost rows logs
// the delete to its WAL under that lock; in strict mode the call
// returns once an fsync covers those frames.
func (c *Collection) deleteWhere(conds []Cond) (int, error) {
	f := compileFilter(c.dict, conds)
	lo, hi := c.targetRange(f)
	total := 0
	var marks []walMark
	err := c.forEach(lo, hi, nil, func(_ int, p *partition) error {
		p.mu.Lock()
		defer p.mu.Unlock()
		n, err := p.deleteLocked(f)
		total += n
		if w := p.wal.Load(); n > 0 && w != nil {
			seq := w.appendOp(delOp(conds))
			if c.syncEveryAppend() {
				marks = append(marks, walMark{w, seq})
			}
		}
		return err
	})
	awaitSynced(marks)
	return total, err
}

// hashKey hashes an index key for shard routing. Keys normalize
// numbers to float64, so 3 and 3.0 route identically, as they compare
// equal under $eq.
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
