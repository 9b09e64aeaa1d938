package docstore

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"alarmverify/internal/frame"
	"alarmverify/internal/fsync"
)

// Durability.
//
// A database opened with OpenDB persists every collection under its
// data directory and recovers it on the next Open — the role the WAL
// + checkpoint pair plays in any real document store, so the alarm
// history, operator feedback and retrainer holdouts survive a crash
// instead of living only in process memory.
//
// Layout under the data directory:
//
//	<dir>/LOCK                       flock guard against double-Open
//	<dir>/<collection>/meta.json     shard key, partition count, indexes, retention
//	<dir>/<collection>/p<P>-<E>.wal  partition P's write-ahead log for epoch E
//	<dir>/<collection>/p<P>-<E>.snap partition P's snapshot at epoch E
//
// Mutations append CRC-framed records to the owning partition's
// current WAL epoch (wal.go). Checkpoint advances a partition to the
// next epoch: the live WAL is rotated out, the partition state is
// captured under its write lock, and the snapshot is staged to a .tmp
// file, fsynced and renamed before every older epoch's files are
// deleted — so at every instant the directory holds a recoverable
// history, whatever step a crash lands on:
//
//   - crash before the snapshot rename: recovery loads the previous
//     epoch's snapshot and replays both the old and the new WAL;
//   - crash after the rename but before the old files are removed
//     (a snapshot newer than a WAL): the stale epoch's files are
//     deleted during recovery, never replayed over the newer state;
//   - a torn WAL tail or a stale .tmp artifact is truncated or
//     removed, exactly like broker segment recovery.
//
// Retention (Collection.SetRetention) prunes expired documents at
// checkpoint time through the ordinary logged delete path, so the
// bound holds across crashes too.

// Durability errors.
var (
	// ErrLocked is returned by OpenDB when another live process (or
	// another open DB in this process) holds the data directory.
	ErrLocked = errors.New("docstore: data directory locked by another open database")
	// ErrNotDurable is returned by durability-only operations invoked
	// on a memory-only database.
	ErrNotDurable = errors.New("docstore: not a durable database")
)

// Default durability cadences; see DurableOptions.
const (
	// DefaultWALSyncInterval is the group-fsync cadence when
	// DurableOptions.SyncInterval is zero: acknowledged writes are
	// flushed to the OS immediately and fsynced within this window.
	DefaultWALSyncInterval = 5 * time.Millisecond
	// DefaultCheckpointInterval is the snapshot + WAL-truncation
	// cadence when DurableOptions.CheckpointInterval is zero.
	DefaultCheckpointInterval = 30 * time.Second
)

// DurableOptions configures OpenDB. The zero value selects the
// defaults: one partition per CPU, a DefaultWALSyncInterval group
// fsync, and a DefaultCheckpointInterval background checkpoint.
type DurableOptions struct {
	// Partitions is the partition count new collections receive
	// (recovered collections keep the count they were created with);
	// <= 0 selects the default.
	Partitions int
	// SyncInterval is the WAL group-fsync cadence: every append is
	// written to the file immediately (surviving a process kill), and
	// a background syncer fsyncs the logs on this interval (bounding
	// what a machine crash can lose). Zero selects
	// DefaultWALSyncInterval. Negative is strict mode: each insert or
	// delete returns only after an fsync covering its frames, and
	// concurrent writers share one. Either way fsync runs outside the
	// append lock, so no append waits on the disk, and a reader may see
	// a row before its fsync completes.
	SyncInterval time.Duration
	// CheckpointInterval is the automatic snapshot + WAL-truncation
	// cadence (also when retention pruning runs). Zero selects
	// DefaultCheckpointInterval; negative disables the background
	// checkpointer, leaving Checkpoint to the caller.
	CheckpointInterval time.Duration
}

// durableDB is the durable half of a DB: the data directory, its
// advisory lock, the group syncer and checkpointer, and the sticky
// first error of the errorless write path.
type durableDB struct {
	dir             string
	lockFile        *os.File
	syncInterval    time.Duration // <= 0: strict mode, each write waits for its fsync
	checkpointEvery time.Duration // <= 0: manual checkpoints only

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error

	// ckptTurn serializes checkpoints (and the epoch counters they
	// advance): a checkpoint holds its one slot across the fsyncs of the
	// logs it rotates out and the snapshots it installs. Only another
	// checkpoint ever waits for it — no read or write does — so it is a
	// turn, not a mutex.
	ckptTurn chan struct{}

	errMu sync.Mutex
	err   error // first WAL/snapshot failure; Sync/Checkpoint/Close surface it
}

func (d *durableDB) noteErr(err error) {
	if err == nil {
		return
	}
	d.errMu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.errMu.Unlock()
}

func (d *durableDB) firstErr() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err
}

// durableCollection binds a collection to its on-disk directory.
type durableCollection struct {
	db     *durableDB
	dir    string
	metaMu sync.Mutex // serializes meta.json rewrites
}

// retentionCfg is a collection's retention window: documents whose
// field holds a unix-seconds timestamp older than the window are
// pruned at checkpoint time.
type retentionCfg struct {
	field string
	age   time.Duration
}

// collectionMeta is the meta.json schema: everything a recovery needs
// to rebuild the collection's shape before replaying its documents.
type collectionMeta struct {
	ShardKey      string   `json:"shardKey,omitempty"`
	Partitions    int      `json:"partitions"`
	Indexes       []string `json:"indexes"`
	RetainField   string   `json:"retainField,omitempty"`
	RetainSeconds float64  `json:"retainSeconds,omitempty"`
}

// snapHeader is the first line of a snapshot file. Count lets
// recovery distinguish a complete snapshot from a truncated one;
// NextID preserves the collection's id watermark across deletions of
// the highest ids.
type snapHeader struct {
	Count  int   `json:"count"`
	NextID int64 `json:"nextId"`
}

// OpenDB opens (or creates) a durable database rooted at dir,
// recovering every persisted collection: the newest complete snapshot
// is loaded and the WAL tail is replayed over it, truncating torn
// frames, deleting WAL epochs older than the snapshot, and removing
// stale .tmp staging artifacts. The directory is flock-guarded, so a
// second concurrent OpenDB — from this or any other live process —
// fails with ErrLocked; the lock dies with the process, so recovery
// after a kill needs no cleanup. Call Close to release it.
func OpenDB(dir string, opts DurableOptions) (*DB, error) {
	if opts.Partitions <= 0 {
		opts.Partitions = defaultPartitions()
	}
	switch {
	case opts.SyncInterval == 0:
		opts.SyncInterval = DefaultWALSyncInterval
	case opts.SyncInterval < 0:
		opts.SyncInterval = 0 // fsync every append
	}
	switch {
	case opts.CheckpointInterval == 0:
		opts.CheckpointInterval = DefaultCheckpointInterval
	case opts.CheckpointInterval < 0:
		opts.CheckpointInterval = 0 // manual only
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("docstore: open: %w", err)
	}
	lockF, err := lockDataDir(dir)
	if err != nil {
		return nil, err
	}
	d := &durableDB{
		dir:             dir,
		lockFile:        lockF,
		syncInterval:    opts.SyncInterval,
		checkpointEvery: opts.CheckpointInterval,
		stop:            make(chan struct{}),
		ckptTurn:        make(chan struct{}, 1),
	}
	db := &DB{partitions: opts.Partitions, collections: make(map[string]*Collection), dur: d}
	entries, err := os.ReadDir(dir)
	if err != nil {
		_ = lockF.Close() // open failed; the lock file holds no data
		return nil, fmt.Errorf("docstore: open: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if err := db.recoverCollection(e.Name()); err != nil {
			_ = lockF.Close() // recovery failed; the lock file holds no data
			return nil, err
		}
	}
	if d.syncInterval > 0 {
		d.wg.Add(1)
		go db.syncLoop()
	}
	if d.checkpointEvery > 0 {
		d.wg.Add(1)
		go db.checkpointLoop()
	}
	return db, nil
}

// lockDataDir takes the directory's advisory lock. flock follows the
// file description, not the path: it is released automatically when
// the process dies (so a SIGKILL leaves nothing stale), and a second
// open in the same process fails just like one from another process.
func lockDataDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("docstore: open: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = f.Close() // flock failed; the lock file holds no data
		return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
	}
	return f, nil
}

// Err returns the database's sticky durability error: the first WAL,
// snapshot or meta-file failure since open, nil while every applied
// mutation has reached its log (always nil on a memory-only database).
// The write API is errorless, so this is what a caller that
// acknowledges writes upstream must check before it does.
func (db *DB) Err() error {
	if db.dur == nil {
		return nil
	}
	return db.dur.firstErr()
}

// syncLoop is the group syncer: on every tick it fsyncs each WAL that
// received appends since the last tick — the batching point that lets
// a thousand acknowledged inserts share one disk flush.
func (db *DB) syncLoop() {
	defer db.dur.wg.Done()
	t := time.NewTicker(db.dur.syncInterval)
	defer t.Stop()
	var logs []*walWriter // the syncer's own: a tick allocates nothing
	for {
		select {
		case <-db.dur.stop:
			return
		case <-t.C:
			var err error
			logs, err = db.syncAll(logs)
			db.dur.noteErr(err)
		}
	}
}

// syncAll fsyncs every collection's logs and returns the first
// failure: it gathers the logs into logs under db.mu, fsyncs them with
// no lock held, and returns the slice emptied for reuse.
func (db *DB) syncAll(logs []*walWriter) ([]*walWriter, error) {
	logs = db.appendWALs(logs[:0])
	var first error
	for _, w := range logs {
		if err := w.sync(); err != nil && first == nil {
			first = err
		}
	}
	clear(logs) // a rotated-out writer is not kept until the next tick
	return logs[:0], first
}

// appendWALs appends every partition's current log to dst.
func (db *DB) appendWALs(dst []*walWriter) []*walWriter {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, c := range db.collections {
		for _, p := range c.parts {
			if w := p.wal.Load(); w != nil {
				dst = append(dst, w)
			}
		}
	}
	return dst
}

// checkpointLoop drives periodic snapshots + WAL truncation.
func (db *DB) checkpointLoop() {
	defer db.dur.wg.Done()
	t := time.NewTicker(db.dur.checkpointEvery)
	defer t.Stop()
	for {
		select {
		case <-db.dur.stop:
			return
		case <-t.C:
			db.dur.noteErr(db.checkpointAll())
		}
	}
}

// snapshotCollections returns a stable copy of the collection set.
func (db *DB) snapshotCollections() []*Collection {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Collection, 0, len(db.collections))
	for _, c := range db.collections {
		out = append(out, c)
	}
	return out
}

// Sync fsyncs every collection's write-ahead logs: when it returns,
// every previously applied mutation is durable on disk. It reports the
// database's first durability failure, if any. A no-op on a
// memory-only database, and on one already closed.
func (db *DB) Sync() error {
	if db.dur == nil {
		return nil
	}
	if _, err := db.syncAll(nil); err != nil {
		db.dur.noteErr(err)
		return err
	}
	return db.dur.firstErr()
}

// Checkpoint snapshots every collection and truncates its logs: each
// partition's state is captured and staged to disk, the WAL advances
// to a fresh epoch, and all older epochs' files are deleted — bounding
// both recovery replay time and disk growth. Retention windows
// (Collection.SetRetention) are pruned first through the ordinary
// logged delete path. Returns ErrNotDurable on a memory-only
// database. Safe to call concurrently with reads and writes; one
// checkpoint runs at a time.
func (db *DB) Checkpoint() error {
	if db.dur == nil {
		return ErrNotDurable
	}
	if err := db.checkpointAll(); err != nil {
		db.dur.noteErr(err)
		return err
	}
	return db.dur.firstErr()
}

func (db *DB) checkpointAll() error {
	db.dur.ckptTurn <- struct{}{}
	defer func() { <-db.dur.ckptTurn }()
	now := time.Now()
	for _, c := range db.snapshotCollections() {
		if c.dur == nil {
			continue
		}
		if _, err := c.PruneExpired(now); err != nil {
			return err
		}
		for pi := range c.parts {
			if err := c.checkpointPartition(pi); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close stops the background syncer and checkpointer, makes every
// acknowledged write durable, closes the logs and releases the data
// directory lock. It returns the database's first durability failure.
// Stop all writers first: mutations after Close are still applied in
// memory but can no longer reach the log. Idempotent; a no-op on a
// memory-only database.
func (db *DB) Close() error {
	d := db.dur
	if d == nil {
		return nil
	}
	d.closeOnce.Do(func() {
		close(d.stop)
		d.wg.Wait()
		for _, w := range db.appendWALs(nil) {
			if err := w.close(); err != nil {
				d.noteErr(err)
			}
		}
		d.lockFile.Close() // releases the flock
		d.closeErr = d.firstErr()
	})
	return d.closeErr
}

// SetRetention bounds the collection's history: documents whose field
// (a unix-seconds timestamp, like the history's "ts") is older than
// maxAge are deleted at every checkpoint, through the ordinary logged
// delete path, so a year of fleet traffic cannot grow the store
// without bound. An empty field or non-positive maxAge clears the
// window. On a durable collection the setting persists in meta.json
// and survives reopen. Callers needing an immediate prune (or running
// memory-only) can invoke PruneExpired directly.
func (c *Collection) SetRetention(field string, maxAge time.Duration) {
	if field == "" || maxAge <= 0 {
		c.ret.Store(nil)
	} else {
		c.ret.Store(&retentionCfg{field: field, age: maxAge})
	}
	if c.dur != nil {
		if err := c.dur.writeMeta(c.metaSnapshot(c.Indexes())); err != nil {
			c.dur.db.noteErr(err)
		}
	}
}

// PruneExpired deletes every document whose retention field holds a
// unix-seconds timestamp older than now minus the retention window,
// returning how many were pruned. A no-op without a configured
// window. The checkpointer calls this on its cadence; it is exported
// for memory-only stores and tests that need a deterministic prune.
func (c *Collection) PruneExpired(now time.Time) (int, error) {
	cfg := c.ret.Load()
	if cfg == nil {
		return 0, nil
	}
	cutoff := float64(now.Add(-cfg.age).UnixNano()) / 1e9
	return c.deleteWhere([]Cond{{Field: cfg.field, Op: "$lt", Value: Float(cutoff)}})
}

// metaSnapshot composes the collection's meta.json content. The index
// list is passed in so callers already holding idxMu (index DDL) and
// callers that must acquire it (SetRetention) share one body.
func (c *Collection) metaSnapshot(indexes []string) collectionMeta {
	m := collectionMeta{
		ShardKey:   c.shardKey,
		Partitions: len(c.parts),
		Indexes:    indexes,
	}
	if cfg := c.ret.Load(); cfg != nil {
		m.RetainField = cfg.field
		m.RetainSeconds = cfg.age.Seconds()
	}
	return m
}

// syncEveryAppend reports whether this collection's writes wait for an
// fsync of their WAL frames (strict mode) instead of leaving them to
// the group syncer.
func (c *Collection) syncEveryAppend() bool {
	return c.dur != nil && c.dur.db.syncInterval <= 0
}

// validCollectionName rejects names that cannot double as directory
// names.
func validCollectionName(name string) error {
	if name == "" || name == "." || name == ".." || name == "LOCK" ||
		strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("docstore: invalid durable collection name %q", name)
	}
	return nil
}

// initCollection prepares the on-disk shape of a freshly created
// collection: its directory, meta.json, and one epoch-1 WAL per
// partition. Called under db.mu.
func (d *durableDB) initCollection(db *DB, c *Collection) error {
	if err := validCollectionName(c.name); err != nil {
		return err
	}
	cdir := filepath.Join(d.dir, c.name)
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		return fmt.Errorf("docstore: create collection %s: %w", c.name, err)
	}
	dc := &durableCollection{db: d, dir: cdir}
	if err := dc.writeMeta(c.metaSnapshot(nil)); err != nil {
		return err
	}
	for pi, p := range c.parts {
		w, err := openWALWriter(dc.walPath(pi, 1), c.dict, d.noteErr)
		if err != nil {
			return err
		}
		p.wal.Store(w)
		p.walEpoch = 1
	}
	c.dur = dc
	return nil
}

func (dc *durableCollection) walPath(pi int, epoch uint64) string {
	return filepath.Join(dc.dir, fmt.Sprintf("p%d-%d.wal", pi, epoch))
}

func (dc *durableCollection) snapPath(pi int, epoch uint64) string {
	return filepath.Join(dc.dir, fmt.Sprintf("p%d-%d.snap", pi, epoch))
}

// writeMeta stages and atomically replaces meta.json.
func (dc *durableCollection) writeMeta(m collectionMeta) error {
	dc.metaMu.Lock()
	defer dc.metaMu.Unlock()
	raw, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("docstore: meta marshal: %w", err)
	}
	return replaceFileSync(filepath.Join(dc.dir, "meta.json"), func(w *bufio.Writer) error {
		_, err := w.Write(raw)
		return err
	})
}

// replaceFileSync writes a file atomically: write's output is staged
// to a .tmp, fsynced and renamed over the target, with the directory
// fsynced so the rename itself is durable. Meta files and snapshots
// both install this way.
//
//alarmvet:ignore atomic installs fsync under cold-path admin mutexes (db.mu/metaMu/idxMu) by design; no partition lock is ever held here
func replaceFileSync(path string, write func(w *bufio.Writer) error) error {
	f, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err == nil {
		bw := bufio.NewWriterSize(f, 1<<20)
		if err = write(bw); err == nil {
			err = bw.Flush()
		}
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr // an earlier failure supersedes; the .tmp is abandoned
		}
	}
	if err != nil {
		return fmt.Errorf("docstore: stage %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return fmt.Errorf("docstore: publish %s: %w", filepath.Base(path), err)
	}
	return fsync.Dir(filepath.Dir(path))
}

// checkpointPartition advances one partition to its next epoch: the
// next epoch's WAL is created up front, the swap + state capture
// happen in one short write-lock critical section (so the snapshot
// covers exactly the rotated-out epochs), and the snapshot is staged,
// fsynced and renamed before older epochs are garbage-collected. A
// crash at any point leaves a recoverable directory; see the package
// comment at the top of this file. Caller holds ckptTurn.
func (c *Collection) checkpointPartition(pi int) error {
	p := c.parts[pi]
	dc := c.dur
	newEpoch := p.walEpoch + 1
	f, err := openWALFile(dc.walPath(pi, newEpoch))
	if err != nil {
		return err
	}
	p.mu.Lock()
	old := p.wal.Load()
	// The new log takes over the old one's frame buffer, which no
	// append uses once the swap is published; the slots a file names
	// start afresh.
	neww := newWALWriter(f, c.dict, old.enc.buf, dc.db.noteErr)
	old.enc.buf = nil
	neww.prev.Store(old)
	p.wal.Store(neww)
	p.walEpoch = newEpoch
	snap := p.copyLocked()
	nextID := c.nextID.Load()
	p.mu.Unlock()
	// Close (fsync) the rotated-out log before publishing the snapshot
	// that supersedes it: its frames must be durable in case the
	// snapshot write below crashes halfway. Until then a sync of the
	// new log syncs the old one too.
	err = old.close()
	neww.prev.Store(nil)
	if err != nil {
		return err
	}
	if err := dc.writeSnapshot(pi, newEpoch, snap, nextID); err != nil {
		return err
	}
	return dc.removeEpochsBefore(pi, newEpoch)
}

// copyLocked captures the partition's rows for the checkpointer to encode
// after it has released the lock. The lanes' chunks are shared: writers
// append past the captured rows, and a gather refills fresh memory
// (lane.truncate). Copied is only a sparse column's presence bitmap
// (set ORs bits into words it shares).
func (p *partition) copyLocked() *partition {
	snap := &partition{dict: p.dict, ids: p.ids.Share(), cols: make([]*column, len(p.cols))}
	for s, col := range p.cols {
		if col == nil {
			continue
		}
		cp := *col
		cp.present = append([]uint64(nil), col.present...)
		cp.strs, cp.nums = col.strs.Share(), col.nums.Share()
		snap.cols[s] = &cp
	}
	return snap
}

// snapshotFrameRows is how many rows a snapshot packs into one frame.
const snapshotFrameRows = 1024

// writeSnapshot installs one partition snapshot: a header frame, then
// the rows in the WAL's own row frames.
func (dc *durableCollection) writeSnapshot(pi int, epoch uint64, snap *partition, nextID int64) error {
	return replaceFileSync(dc.snapPath(pi, epoch), func(w *bufio.Writer) error {
		hdr, err := json.Marshal(snapHeader{Count: snap.ids.Len(), NextID: nextID})
		if err == nil {
			hdr, err = frame.Append(nil, hdr, walMaxFrame)
		}
		if err != nil {
			return err
		}
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		var enc rowEncoder
		names := snap.dict.fieldNames()
		slots := make([]int, len(snap.cols))
		for s := range slots {
			slots[s] = s
		}
		cells := make([]Cell, len(snap.cols))
		row := func(r int) []Cell {
			for s, col := range snap.cols {
				cells[s] = col.cell(r)
			}
			return cells
		}
		for lo := 0; lo < snap.ids.Len(); lo += snapshotFrameRows {
			hi := min(lo+snapshotFrameRows, snap.ids.Len())
			for r := lo; r < hi; r++ {
				enc.define(slots, row(r))
			}
			enc.begin(names, hi-lo)
			for r := lo; r < hi; r++ {
				enc.add(snap.ids.At(r), slots, row(r))
			}
			f, err := enc.finish()
			if err != nil {
				return err
			}
			if _, err := w.Write(f); err != nil {
				return err
			}
		}
		return nil
	})
}

// removeEpochsBefore garbage-collects every snapshot and WAL file of
// the partition with an epoch older than keep.
func (dc *durableCollection) removeEpochsBefore(pi int, keep uint64) error {
	entries, err := os.ReadDir(dc.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		epi, epoch, _, ok := parsePartFile(e.Name())
		if !ok || epi != pi || epoch >= keep {
			continue
		}
		if err := os.Remove(filepath.Join(dc.dir, e.Name())); err != nil {
			return fmt.Errorf("docstore: gc %s: %w", e.Name(), err)
		}
	}
	return fsync.Dir(dc.dir)
}

// parsePartFile decodes a partition file name of the form
// p<partition>-<epoch>.snap or p<partition>-<epoch>.wal.
func parsePartFile(name string) (pi int, epoch uint64, isSnap bool, ok bool) {
	var body string
	switch {
	case strings.HasSuffix(name, ".snap"):
		body, isSnap = strings.TrimSuffix(name, ".snap"), true
	case strings.HasSuffix(name, ".wal"):
		body = strings.TrimSuffix(name, ".wal")
	default:
		return 0, 0, false, false
	}
	if !strings.HasPrefix(body, "p") {
		return 0, 0, false, false
	}
	dash := strings.IndexByte(body, '-')
	if dash < 2 {
		return 0, 0, false, false
	}
	pn, err1 := strconv.Atoi(body[1:dash])
	en, err2 := strconv.ParseUint(body[dash+1:], 10, 64)
	if err1 != nil || err2 != nil || pn < 0 {
		return 0, 0, false, false
	}
	return pn, en, isSnap, true
}

// recoverCollection rebuilds one persisted collection: stale .tmp
// staging artifacts are removed, the collection shape is restored
// from meta.json, and each partition loads its newest complete
// snapshot and replays every WAL epoch at or after it in order,
// truncating torn tails and deleting epochs the snapshot supersedes.
func (db *DB) recoverCollection(name string) error {
	d := db.dur
	cdir := filepath.Join(d.dir, name)
	entries, err := os.ReadDir(cdir)
	if err != nil {
		return fmt.Errorf("docstore: recover %s: %w", name, err)
	}
	for _, e := range entries {
		// A crash between a staging write and its rename leaves a .tmp
		// holding a possibly partial file that must never shadow the
		// published one; remove it so it cannot accumulate.
		if strings.HasSuffix(e.Name(), ".tmp") {
			if err := os.Remove(filepath.Join(cdir, e.Name())); err != nil {
				return fmt.Errorf("docstore: recover %s: remove stale %s: %w", name, e.Name(), err)
			}
		}
	}
	metaRaw, err := os.ReadFile(filepath.Join(cdir, "meta.json"))
	if errors.Is(err, os.ErrNotExist) {
		// A crash between the collection mkdir and its first meta.json
		// write: the directory never held data, so it is debris.
		return os.RemoveAll(cdir)
	}
	if err != nil {
		return fmt.Errorf("docstore: recover %s: %w", name, err)
	}
	var meta collectionMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return fmt.Errorf("docstore: recover %s: bad meta.json: %w", name, err)
	}
	if meta.Partitions <= 0 {
		return fmt.Errorf("docstore: recover %s: bad partition count %d", name, meta.Partitions)
	}
	c := newCollection(name, meta.ShardKey, meta.Partitions)
	c.dur = &durableCollection{db: d, dir: cdir}
	if meta.RetainField != "" && meta.RetainSeconds > 0 {
		c.ret.Store(&retentionCfg{
			field: meta.RetainField,
			age:   time.Duration(meta.RetainSeconds * float64(time.Second)),
		})
	}
	// Indexes first, over the still-empty partitions: document replay
	// then maintains them incrementally like live writes do.
	for _, f := range meta.Indexes {
		if err := c.addIndex(f); err != nil {
			return fmt.Errorf("docstore: recover %s: %w", name, err)
		}
	}
	// Partition files, grouped by partition.
	snapEpochs := make([]uint64, meta.Partitions)
	walEpochs := make([][]uint64, meta.Partitions)
	entries, err = os.ReadDir(cdir) // re-list: .tmp files are gone
	if err != nil {
		return fmt.Errorf("docstore: recover %s: %w", name, err)
	}
	for _, e := range entries {
		pi, epoch, isSnap, ok := parsePartFile(e.Name())
		if !ok || pi >= meta.Partitions {
			continue
		}
		if isSnap {
			if epoch > snapEpochs[pi] {
				snapEpochs[pi] = epoch
			}
		} else {
			walEpochs[pi] = append(walEpochs[pi], epoch)
		}
	}
	maxID := int64(-1)
	nextID := int64(0)
	for pi, p := range c.parts {
		dc := c.dur
		snapEpoch := snapEpochs[pi]
		if snapEpoch > 0 {
			hdrNext, err := loadSnapshot(p, dc.snapPath(pi, snapEpoch), &maxID)
			if err != nil {
				return fmt.Errorf("docstore: recover %s/p%d: %w", name, pi, err)
			}
			if hdrNext > nextID {
				nextID = hdrNext
			}
		}
		epochs := walEpochs[pi]
		sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
		cur := snapEpoch
		if cur == 0 {
			cur = 1
		}
		for _, we := range epochs {
			path := dc.walPath(pi, we)
			if we < snapEpoch {
				// Snapshot newer than this WAL: its ops are already in
				// the snapshot. Replaying would double-apply; delete.
				if err := os.Remove(path); err != nil {
					return fmt.Errorf("docstore: recover %s/p%d: gc stale wal: %w", name, pi, err)
				}
				continue
			}
			if we > cur {
				cur = we
			}
			dec := rowDecoder{dict: c.dict}
			valid, err := readFrames(path, func(payload []byte) error {
				return replayFrame(p, &dec, payload, &maxID)
			})
			if err != nil {
				return fmt.Errorf("docstore: recover %s/p%d: %w", name, pi, err)
			}
			if fi, statErr := os.Stat(path); statErr == nil && fi.Size() > valid {
				if err := os.Truncate(path, valid); err != nil {
					return fmt.Errorf("docstore: recover %s/p%d: truncate torn tail: %w", name, pi, err)
				}
			}
		}
		w, err := openWALWriter(dc.walPath(pi, cur), c.dict, d.noteErr)
		if err != nil {
			return err
		}
		p.wal.Store(w)
		p.walEpoch = cur
	}
	if maxID+1 > nextID {
		nextID = maxID + 1
	}
	c.nextID.Store(nextID)
	db.collections[name] = c
	return nil
}

// loadSnapshot replays one partition snapshot into the (empty, not
// yet shared) partition and returns the header's id watermark. A
// snapshot is staged and renamed atomically, so a short or
// undecodable one means external corruption: recovery fails loudly
// rather than silently dropping documents the WAL was truncated
// against.
func loadSnapshot(p *partition, path string, maxID *int64) (int64, error) {
	var hdr *snapHeader
	dec := rowDecoder{dict: p.dict}
	_, err := readFrames(path, func(payload []byte) error {
		if hdr == nil {
			hdr = new(snapHeader)
			if json.Unmarshal(payload, hdr) != nil {
				return errBadFrame
			}
			return nil
		}
		return replayFrame(p, &dec, payload, maxID)
	})
	switch {
	case err != nil:
		return 0, err
	case hdr == nil:
		return 0, fmt.Errorf("truncated snapshot %s: bad header", filepath.Base(path))
	case p.ids.Len() != hdr.Count:
		return 0, fmt.Errorf("truncated snapshot %s: %d of %d documents", filepath.Base(path), p.ids.Len(), hdr.Count)
	}
	return hdr.NextID, nil
}

// replayFrame applies one logged frame to a recovering partition: a
// row frame appends its rows once the field dictionary has admitted
// every cell's kind, a JSON frame replays its delete (and an empty one
// does not parse).
func replayFrame(p *partition, dec *rowDecoder, payload []byte, maxID *int64) error {
	if len(payload) == 0 || payload[0] != frameRows {
		return p.applyLocked(payload)
	}
	rows := raggedPool.Get().(*Rows)
	defer func() { rows.Reset(); raggedPool.Put(rows) }()
	if err := dec.decode(payload, rows); err != nil {
		return err
	}
	if err := p.dict.admit(rows); err != nil {
		return fmt.Errorf("%w: %v", errBadFrame, err)
	}
	for i := 0; i < rows.n; i++ {
		slots, cells := rows.row(i)
		p.appendRowLocked(rows.ids[i], slots, cells)
		*maxID = max(*maxID, rows.ids[i])
	}
	p.restoreOrderLocked() // the log holds batches in arrival order
	return nil
}
