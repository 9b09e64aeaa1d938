package docstore

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alarmverify/internal/frame"
)

// setSyncHook installs fn to run in w's fsync leader just before
// f.Sync.
func setSyncHook(w *walWriter, fn func()) {
	w.mu.Lock()
	w.syncHook = fn
	w.mu.Unlock()
}

// stallFsync holds every fsync of w in front of the disk until release
// is called; entered closes when the first leader gets there.
func stallFsync(w *walWriter) (entered <-chan struct{}, release func()) {
	in, gate := make(chan struct{}), make(chan struct{})
	var once, opened sync.Once
	setSyncHook(w, func() {
		once.Do(func() { close(in) })
		<-gate
	})
	return in, func() { opened.Do(func() { close(gate) }) }
}

// logRows reads a log file back and returns, by document id, the
// sequence number of the frame that holds it.
func logRows(t *testing.T, path string, dict *fieldDict) map[int64]uint64 {
	t.Helper()
	at := make(map[int64]uint64)
	dec := rowDecoder{dict: dict}
	rows := raggedPool.Get().(*Rows)
	defer func() { rows.Reset(); raggedPool.Put(rows) }()
	var seq uint64
	if _, err := readFrames(path, func(payload []byte) error {
		seq++
		if payload[0] != frameRows {
			return nil
		}
		if err := dec.decode(payload, rows); err != nil {
			return err
		}
		for _, id := range rows.ids {
			at[id] = seq
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return at
}

// frameOf frames a payload as the log does.
func frameOf(payload []byte) []byte {
	f, err := frame.Append(nil, payload, walMaxFrame)
	if err != nil {
		panic(err)
	}
	return f
}

// TestWALAppendsAndReadsPassStalledFsync: with a partition's fsync
// stuck in front of the disk, an insert into that partition and a
// histogram sweep over it both return, and the insert's frame is
// already in the file. Before, the leader held the append mutex across
// f.Sync, so the insert waited for the disk under the partition lock,
// and the sweep waited for the insert.
func TestWALAppendsAndReadsPassStalledFsync(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, DurableOptions{Partitions: 1, SyncInterval: time.Hour, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CollectionWithShardKey("alarms", "deviceMac")
	if err != nil {
		t.Fatal(err)
	}
	col.Insert(Doc{"deviceMac": "a", "ts": 1.0})
	w := col.parts[0].wal.Load()
	entered, release := stallFsync(w)
	defer release()
	synced := make(chan error, 1)
	go func() { synced <- db.Sync() }()
	<-entered

	const batch = 10
	done := make(chan int, 1)
	go func() {
		rows := col.NewRows("deviceMac", "ts")
		for i := 0; i < batch; i++ {
			row := rows.Next()
			row[0], row[1] = String("a"), Float(float64(2+i))
		}
		col.InsertRows(rows)
		total := 0
		err := col.BucketCounts([][]Cond{{{Field: "deviceMac", Op: "$eq", Value: String("a")}}},
			Bucket{Field: "ts", Width: 100}, func(_ int, bars []BucketCount) {
				for _, b := range bars {
					total += b.Count
				}
			})
		if err != nil {
			t.Error(err)
		}
		done <- total
	}()
	select {
	case total := <-done:
		if total != 1+batch {
			t.Fatalf("sweep counted %d rows, want %d", total, 1+batch)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an insert or a sweep waited on a stalled fsync")
	}
	if got := len(logRows(t, filepath.Join(dir, "alarms", "p0-1.wal"), col.dict)); got != 1+batch {
		t.Fatalf("the log holds %d rows before its fsync finished, want %d", got, 1+batch)
	}
	release()
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALStrictWritersShareFsync: in strict mode each of 8 concurrent
// inserters returns only after an fsync that started once its frame was
// written — the writer's synced count, read as the insert returns,
// reaches the frame's number, and a leader takes its target from the
// frames already written when it starts — while the inserters cause
// fewer fsyncs than inserts.
func TestWALStrictWritersShareFsync(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, DurableOptions{Partitions: 1, SyncInterval: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	col := db.Collection("a")
	w := col.parts[0].wal.Load()
	var fsyncs atomic.Int64
	// A slow disk: the other inserters write their frames while one
	// fsync is under way, and wait for the next.
	setSyncHook(w, func() { fsyncs.Add(1); time.Sleep(time.Millisecond) })

	const writers, per = 8, 20
	type ack struct {
		id     int64
		synced uint64
	}
	acks := make(chan ack, writers*per)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows := col.NewRows("g")
			for i := 0; i < per; i++ {
				rows.Reset()
				rows.Next()[0] = Int64(int64(g))
				id := col.InsertRows(rows)
				w.mu.Lock()
				synced := w.synced
				w.mu.Unlock()
				acks <- ack{id, synced}
			}
		}()
	}
	wg.Wait()
	close(acks)
	frame := logRows(t, filepath.Join(dir, "a", "p0-1.wal"), col.dict)
	for a := range acks {
		seq, ok := frame[a.id]
		if !ok {
			t.Fatalf("row %d is not in the log", a.id)
		}
		if seq > a.synced {
			t.Fatalf("insert of row %d (frame %d) returned with frames 1..%d fsynced", a.id, seq, a.synced)
		}
	}
	n := fsyncs.Load()
	t.Logf("%d strict inserts, %d fsyncs", writers*per, n)
	if n >= writers*per {
		t.Fatalf("%d strict inserts caused %d fsyncs: concurrent writers did not share one", writers*per, n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALCloseWaitsForStalledFsync: Close during an fsync waits for it
// rather than closing the file under it, and Sync after Close is a
// no-op.
func TestWALCloseWaitsForStalledFsync(t *testing.T) {
	db, err := OpenDB(t.TempDir(), DurableOptions{Partitions: 1, SyncInterval: time.Hour, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	col := db.Collection("a")
	col.Insert(Doc{"x": 1.0})
	w := col.parts[0].wal.Load()
	entered, release := stallFsync(w)
	defer release()
	synced := make(chan error, 1)
	go func() { synced <- db.Sync() }()
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with an fsync in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-synced; err != nil {
		t.Fatalf("the stalled fsync: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	var late atomic.Int64
	setSyncHook(w, func() { late.Add(1) })
	if err := db.Sync(); err != nil {
		t.Fatalf("Sync after Close: %v", err)
	}
	if late.Load() != 0 {
		t.Fatal("Sync after Close ran an fsync")
	}
}

// TestWALSyncCoversRotatedLog: a checkpoint has swapped a partition to
// its next log but the old one's closing fsync has not finished; a Sync
// then waits for that fsync, since the frames it covers were applied
// before the Sync was called.
func TestWALSyncCoversRotatedLog(t *testing.T) {
	db, err := OpenDB(t.TempDir(), DurableOptions{Partitions: 1, SyncInterval: time.Hour, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	col := db.Collection("a")
	col.Insert(Doc{"x": 1.0})
	old := col.parts[0].wal.Load()
	entered, release := stallFsync(old)
	defer release()
	checkpointed := make(chan error, 1)
	go func() { checkpointed <- db.Checkpoint() }()
	<-entered // swapped, and closing the old log
	synced := make(chan error, 1)
	go func() { synced <- db.Sync() }()
	select {
	case err := <-synced:
		t.Fatalf("Sync returned (%v) before the rotated-out log's fsync", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if err := <-checkpointed; err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALHammerReopensExactly: inserts and deletes from several
// goroutines beside explicit syncs, the group syncer or strict mode,
// and checkpoints every few milliseconds; the reopened store holds
// exactly the documents that were applied. Run under -race.
func TestWALHammerReopensExactly(t *testing.T) {
	for _, mode := range []struct {
		name string
		sync time.Duration
	}{{"group", time.Millisecond}, {"strict", -1}} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := DurableOptions{Partitions: 4, SyncInterval: mode.sync, CheckpointInterval: 3 * time.Millisecond}
			db, err := OpenDB(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			col, err := db.CollectionWithShardKey("alarms", "mac")
			if err != nil {
				t.Fatal(err)
			}
			const workers, per = 4, 150
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					mac := fmt.Sprintf("m%d", g)
					for i := 0; i < per; i++ {
						switch i % 4 {
						case 0:
							col.Insert(Doc{"mac": mac, "i": i})
						case 1:
							col.InsertMany([]Doc{{"mac": mac, "i": i}, {"mac": mac, "i": i, "b": 1}})
						case 2:
							if _, err := col.deleteWhere([]Cond{eq("mac", mac), eq("i", i-2)}); err != nil {
								t.Error(err)
							}
						default:
							if err := db.Sync(); err != nil {
								t.Error(err)
							}
						}
					}
				}()
			}
			wg.Wait()
			fields := []string{"mac", "i", "b"}
			want := tailDocs(col, 0, fields...)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := OpenDB(dir, DurableOptions{Partitions: 4, SyncInterval: -1, CheckpointInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			got := tailDocs(db2.Collection("alarms"), 0, fields...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened store holds %d documents, %d were applied, or they differ", len(got), len(want))
			}
			t.Logf("%d documents applied and recovered", len(want))
		})
	}
}
