package docstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// fastOpts keeps background cadences tight and deterministic-ish for
// tests: strict per-append fsync, no background checkpointer.
func fastOpts() DurableOptions {
	return DurableOptions{Partitions: 4, SyncInterval: -1, CheckpointInterval: -1}
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CollectionWithShardKey("alarms", "deviceMac")
	if err != nil {
		t.Fatal(err)
	}
	if err := col.CreateIndex("zip"); err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2026, 8, 7, 12, 0, 0, 123456789, time.UTC)
	want := Doc{
		"deviceMac": "aa:bb:cc",
		"zip":       "1011",
		"alarmId":   int64(1 << 55), // beyond float64's exact-integer range
		"verdict":   1,              // int must come back as int
		"ts":        ts,             // time must come back as time.Time
		"duration":  2.5,
		"real":      true,
		"nested":    map[string]any{"a": []any{"x", 1.0}},
	}
	id := col.Insert(want)
	for i := 0; i < 50; i++ {
		col.Insert(Doc{"deviceMac": "dd:ee:ff", "zip": "2000", "n": float64(i)})
	}
	if n, err := col.Delete(Doc{"zip": "2000", "n": 4.0}); err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	col2 := db2.Collection("alarms")
	if col2.shardKey != "deviceMac" {
		t.Fatalf("shard key not recovered: %q", col2.shardKey)
	}
	if got := col2.Indexes(); !reflect.DeepEqual(got, []string{"zip"}) {
		t.Fatalf("indexes not recovered: %v", got)
	}
	if col2.Len() != 50 { // 51 inserted, 1 deleted
		t.Fatalf("Len=%d, want 50", col2.Len())
	}
	got, err := get(col2, id)
	if err != nil {
		t.Fatal(err)
	}
	delete(got, "_id")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered doc mismatch:\n got %#v\nwant %#v", got, want)
	}
	if docs, err := col2.Find(Doc{"n": 4.0}); err != nil || len(docs) != 0 {
		t.Fatalf("deleted doc resurrected: %v err=%v", docs, err)
	}
	// The id watermark must continue past everything ever assigned.
	newID := col2.Insert(Doc{"deviceMac": "zz", "zip": "3000"})
	if newID <= id {
		t.Fatalf("id watermark regressed: new=%d old=%d", newID, id)
	}
}

func TestDurableCheckpointAndGC(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	col := db.Collection("a")
	for i := 0; i < 200; i++ {
		col.Insert(Doc{"i": i})
	}
	for round := 0; round < 3; round++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		col.Insert(Doc{"extra": round})
	}
	// GC must leave exactly one snapshot and one WAL per partition.
	entries, err := os.ReadDir(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	snaps, wals := 0, 0
	for _, e := range entries {
		_, _, isSnap, ok := parsePartFile(e.Name())
		if !ok {
			continue
		}
		if isSnap {
			snaps++
		} else {
			wals++
		}
	}
	if snaps != len(col.parts) || wals != len(col.parts) {
		t.Fatalf("epoch GC left %d snapshots, %d wals; want %d each", snaps, wals, len(col.parts))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := db2.Collection("a").Len(); n != 203 {
		t.Fatalf("Len=%d after checkpointed recovery, want 203", n)
	}
}

func TestDurableTornWALTail(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	col := db.Collection("a")
	for i := 0; i < 40; i++ {
		col.Insert(Doc{"i": i})
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear every partition's WAL tail: a half-written frame header and
	// a frame whose declared length exceeds the bytes present.
	entries, _ := os.ReadDir(filepath.Join(dir, "a"))
	torn := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".wal") {
			continue
		}
		f, err := os.OpenFile(filepath.Join(dir, "a", e.Name()), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte{0xFF, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02})
		f.Close()
		torn++
	}
	if torn == 0 {
		t.Fatal("no WAL files found to tear")
	}
	db2, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if n := db2.Collection("a").Len(); n != 40 {
		t.Fatalf("Len=%d after torn-tail recovery, want 40", n)
	}
	// Recovery truncated the tails, so appends continue cleanly.
	db2.Collection("a").Insert(Doc{"after": true})
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if n := db3.Collection("a").Len(); n != 41 {
		t.Fatalf("Len=%d after post-truncation append, want 41", n)
	}
}

func TestDurableTruncatedSnapshotFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, DurableOptions{Partitions: 1, SyncInterval: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	col := db.Collection("a")
	for i := 0; i < 100; i++ {
		col.Insert(Doc{"i": i, "pad": strings.Repeat("x", 100)})
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(filepath.Join(dir, "a"))
	cut := false
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") {
			p := filepath.Join(dir, "a", e.Name())
			fi, _ := os.Stat(p)
			if err := os.Truncate(p, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
			cut = true
		}
	}
	if !cut {
		t.Fatal("no snapshot found to truncate")
	}
	// A snapshot is written atomically, so a short one means external
	// corruption: recovery must refuse rather than silently serve a
	// store missing documents the WAL was already truncated against.
	if _, err := OpenDB(dir, fastOpts()); err == nil || !strings.Contains(err.Error(), "truncated snapshot") {
		t.Fatalf("want truncated-snapshot error, got %v", err)
	}
}

// TestRecoveryRefusesUnknownOp: a CRC-valid frame carrying an op this
// store does not write (the "upd" frames older builds logged) is not a
// torn tail. Recovery must fail naming the op, and leave the log as it
// found it, rather than truncate away the frames behind it.
func TestRecoveryRefusesUnknownOp(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Partitions: 1, SyncInterval: -1, CheckpointInterval: -1}
	db, err := OpenDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	db.Collection("a").Insert(Doc{"n": 1.0})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// By hand, behind the valid row frame: the foreign op, then another
	// valid row frame.
	path := filepath.Join(dir, "a", "p0-1.wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frameOf([]byte(`{"op":"upd","filter":{"n":1},"set":{"n":2}}`))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	dict := new(fieldDict)
	w, err := openWALWriter(path, dict, func(err error) { t.Error(err) })
	if err != nil {
		t.Fatal(err)
	}
	rows := &Rows{slots: []int{dict.slot("n")}}
	rows.Next()[0] = Float(3)
	w.appendRows(dict, rows, []int32{0}, 1)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDB(dir, opts)
	if err == nil {
		db2.Close()
		t.Fatal("OpenDB replayed a log holding an op it does not understand")
	}
	if !strings.Contains(err.Error(), `unknown wal op "upd"`) {
		t.Fatalf("OpenDB failed with %q, want it to name the op", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("refused log was rewritten: %d bytes, was %d", len(after), len(before))
	}
	// The refusal released the directory: a second attempt fails the
	// same way, not with ErrLocked.
	if _, err := OpenDB(dir, opts); err == nil || errors.Is(err, ErrLocked) {
		t.Fatalf("second OpenDB: %v", err)
	}
}

func TestDurableSnapshotNewerThanWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, DurableOptions{Partitions: 1, SyncInterval: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.Collection("a").Insert(Doc{"keep": true})
	if err := db.Checkpoint(); err != nil { // snapshot at epoch 2; epoch-1 WAL GC'd
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant a stale epoch-1 WAL, as if a crash had interrupted the GC
	// step right after the snapshot rename. Its ops are already inside
	// the snapshot's lineage; replaying it would double-apply.
	dict := new(fieldDict)
	w, err := openWALWriter(filepath.Join(dir, "a", "p0-1.wal"), dict, func(error) {})
	if err != nil {
		t.Fatal(err)
	}
	rows := &Rows{slots: []int{dict.slot("stale")}}
	rows.Next()[0] = boolCell(true)
	w.appendRows(dict, rows, []int32{0}, 0)
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	col := db2.Collection("a")
	if n := col.Len(); n != 1 {
		t.Fatalf("Len=%d, want 1 (stale WAL must not replay)", n)
	}
	if docs, _ := col.Find(Doc{"stale": true}); len(docs) != 0 {
		t.Fatalf("stale WAL op replayed over newer snapshot: %v", docs)
	}
	if _, err := os.Stat(filepath.Join(dir, "a", "p0-1.wal")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale WAL not deleted during recovery")
	}
}

func TestDurableStaleTmpArtifactsRemoved(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, DurableOptions{Partitions: 1, SyncInterval: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.Collection("a").Insert(Doc{"x": 1})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"p0-9.snap.tmp", "meta.json.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, "a", name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db2, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	entries, _ := os.ReadDir(filepath.Join(dir, "a"))
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("stale tmp artifact survived recovery: %s", e.Name())
		}
	}
	if n := db2.Collection("a").Len(); n != 1 {
		t.Fatalf("Len=%d, want 1", n)
	}
}

func TestDurableEmptyDataDir(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got := db.snapshotCollections(); len(got) != 0 {
		t.Fatalf("fresh dir recovered collections: %v", got)
	}
	if db.dur == nil || db.dur.dir != dir {
		t.Fatal("the database does not keep its data directory")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopening a dir that only ever held the LOCK file works too.
	db2, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableDoubleOpenLocked(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDB(dir, fastOpts()); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open: want ErrLocked, got %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Close releases the lock.
	db2, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	db2.Close()
}

func TestDurableRetention(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	col := db.Collection("hist")
	col.SetRetention("ts", time.Hour)
	now := time.Now()
	old := float64(now.Add(-2*time.Hour).UnixNano()) / 1e9
	fresh := float64(now.Add(-time.Minute).UnixNano()) / 1e9
	for i := 0; i < 10; i++ {
		col.Insert(Doc{"ts": old, "age": "old"})
		col.Insert(Doc{"ts": fresh, "age": "fresh"})
	}
	if err := db.Checkpoint(); err != nil { // retention prunes at checkpoint time
		t.Fatal(err)
	}
	if n := col.Len(); n != 10 {
		t.Fatalf("Len=%d after retention checkpoint, want 10", n)
	}
	if docs, _ := col.Find(Doc{"age": "old"}); len(docs) != 0 {
		t.Fatalf("expired docs survived: %d", len(docs))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	col2 := db2.Collection("hist")
	if n := col2.Len(); n != 10 {
		t.Fatalf("Len=%d after recovery, want 10 (prune must be durable)", n)
	}
	if ret := col2.ret.Load(); ret == nil || ret.field != "ts" || ret.age != time.Hour {
		t.Fatalf("retention not recovered: %+v", ret)
	}
}

func TestDurablePartitionCountPinnedByMeta(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, DurableOptions{Partitions: 3, SyncInterval: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.Collection("a").Insert(Doc{"x": 1})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with a different default: the recovered collection must
	// keep the partition count it was created with — WAL files are
	// per-partition, so the count pins the routing.
	db2, err := OpenDB(dir, DurableOptions{Partitions: 8, SyncInterval: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := len(db2.Collection("a").parts); n != 3 {
		t.Fatalf("NumPartitions=%d after recovery, want 3", n)
	}
	if n := len(db2.Collection("fresh").parts); n != 8 {
		t.Fatalf("fresh collection NumPartitions=%d, want 8", n)
	}
}

func TestDurableConcurrentWritesWithBackgroundLoops(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, DurableOptions{
		Partitions:         4,
		SyncInterval:       time.Millisecond,
		CheckpointInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CollectionWithShardKey("alarms", "mac")
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				switch i % 3 {
				case 0:
					col.Insert(Doc{"mac": w, "i": i})
				case 1:
					col.InsertMany([]Doc{{"mac": w, "i": i}, {"mac": w, "i": i, "b": true}})
				default:
					col.Delete(Doc{"mac": w, "i": i - 1})
				}
			}
		}(w)
	}
	wg.Wait()
	want := col.Len()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDB(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Collection("alarms").Len(); got != want {
		t.Fatalf("recovered Len=%d, want %d", got, want)
	}
}

func TestDurableInvalidCollectionName(t *testing.T) {
	db, err := OpenDB(t.TempDir(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CollectionWithShardKey("../escape", "k"); err == nil {
		t.Fatal("path-traversal collection name accepted")
	}
	if _, err := db.CollectionWithShardKey("LOCK", "k"); err == nil {
		t.Fatal("LOCK collection name accepted")
	}
}

func TestMemoryDBDurabilityNoOps(t *testing.T) {
	db := NewDB()
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("want ErrNotDurable, got %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db.dur != nil {
		t.Fatal("memory DB has a durable half")
	}
	// Retention still prunes on demand without a checkpointer.
	col := db.Collection("h")
	col.SetRetention("ts", time.Hour)
	col.Insert(Doc{"ts": float64(time.Now().Add(-2*time.Hour).UnixNano()) / 1e9})
	if n, err := col.PruneExpired(time.Now()); err != nil || n != 1 {
		t.Fatalf("prune: n=%d err=%v", n, err)
	}
}
