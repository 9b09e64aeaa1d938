package docstore

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Crash-recovery hammer: a child copy of this test binary ingests
// alarm-shaped documents into a durable store, recording each
// acknowledged high-water mark — a sequence number written to a side
// file only AFTER the insert of everything up to it returned — until
// the parent SIGKILLs it mid-ingest. An insert that returned has its
// frame in the file in either sync mode (strict mode has also fsynced
// it), and a process kill loses nothing the file holds. The parent then
// reopens the data directory and asserts the durability contract: every
// acknowledged document recovered (zero acked loss), replay bounded in
// time, and the reopened store writable. Run under -race in CI; the
// child inherits the instrumented binary.

const (
	crashChildEnv     = "DOCSTORE_CRASH_CHILD_DIR"
	crashChildSyncEnv = "DOCSTORE_CRASH_CHILD_SYNC" // the child's SyncInterval
	crashAckFile      = "acked"
)

// TestCrashRecoveryChild is the child-process body; it only runs when
// the hammer execs it with the data-dir env var set.
func TestCrashRecoveryChild(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("crash-hammer child body; run via TestCrashRecoveryHammer")
	}
	syncEvery, err := time.ParseDuration(os.Getenv(crashChildSyncEnv))
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDB(filepath.Join(dir, "db"), DurableOptions{
		Partitions:         4,
		SyncInterval:       syncEvery,
		CheckpointInterval: 20 * time.Millisecond, // checkpoints race the kill too
	})
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CollectionWithShardKey("alarms", "deviceMac")
	if err != nil {
		t.Fatal(err)
	}
	ack, err := os.OpenFile(filepath.Join(dir, crashAckFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	deadline := time.Now().Add(30 * time.Second) // parent kills long before this
	for time.Now().Before(deadline) {
		// A mix of the single and batched ingest paths.
		if seq%3 == 0 {
			batch := make([]Doc, 5)
			for i := range batch {
				batch[i] = Doc{"deviceMac": fmt.Sprintf("d%d", seq%17), "seq": seq, "ts": float64(seq)}
				seq++
			}
			col.InsertMany(batch)
		} else {
			col.Insert(Doc{"deviceMac": fmt.Sprintf("d%d", seq%17), "seq": seq, "ts": float64(seq)})
			seq++
		}
		// Durability ack point: the insert returned, so the high-water
		// mark may be published to the side file.
		if _, err := fmt.Fprintf(ack, "%d\n", seq-1); err != nil {
			t.Fatal(err)
		}
		if seq%50 == 0 {
			// Explicit syncs race the group syncer and the checkpoints.
			if err := db.Sync(); err != nil {
				t.Fatalf("sync: %v", err)
			}
		}
	}
}

func TestCrashRecoveryHammer(t *testing.T) {
	if os.Getenv(crashChildEnv) != "" {
		t.Skip("already inside the child")
	}
	if testing.Short() {
		t.Skip("subprocess hammer skipped in -short mode")
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct{ name, sync string }{{"strict", "-1ms"}, {"group", "1ms"}} {
		t.Run(mode.name, func(t *testing.T) { crashRounds(t, bin, mode.sync) })
	}
}

// crashRounds kills a child ingesting at the given SyncInterval three
// times, and checks each recovery.
func crashRounds(t *testing.T, bin, syncEvery string) {
	for round := 0; round < 3; round++ {
		dir := t.TempDir()
		cmd := exec.Command(bin, "-test.run", "^TestCrashRecoveryChild$", "-test.v")
		cmd.Env = append(os.Environ(), crashChildEnv+"="+dir, crashChildSyncEnv+"="+syncEvery)
		var sink strings.Builder
		cmd.Stdout, cmd.Stderr = &sink, &sink
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Let ingest reach a steady state, then kill it mid-flight.
		time.Sleep(time.Duration(300+150*round) * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait() // expected to report the kill; output only matters on failure below

		acked := lastAckedSeq(t, filepath.Join(dir, crashAckFile))
		if acked < 0 {
			t.Logf("round %d: child killed before first ack; child output:\n%s", round, sink.String())
			continue
		}
		start := time.Now()
		db, err := OpenDB(filepath.Join(dir, "db"), DurableOptions{Partitions: 4, SyncInterval: -1, CheckpointInterval: -1})
		if err != nil {
			t.Fatalf("round %d: reopen after kill: %v\nchild output:\n%s", round, err, sink.String())
		}
		replay := time.Since(start)
		if replay > 20*time.Second {
			t.Fatalf("round %d: replay took %v, want bounded", round, replay)
		}
		col := db.Collection("alarms")
		seen := make(map[int]bool, col.Len())
		for _, d := range tailDocs(col, 0, "seq") {
			if s, ok := d["seq"].(int); ok {
				seen[s] = true
			}
		}
		missing := 0
		for s := 0; s <= acked; s++ {
			if !seen[s] {
				missing++
			}
		}
		if missing > 0 {
			t.Fatalf("round %d: %d of %d acked documents lost after crash recovery", round, missing, acked+1)
		}
		// The recovered store must keep working.
		col.Insert(Doc{"deviceMac": "post", "seq": -1})
		if err := db.Close(); err != nil {
			t.Fatalf("round %d: close after recovery: %v", round, err)
		}
		t.Logf("round %d: acked=%d recovered=%d replay=%v", round, acked+1, len(seen), replay)
	}
}

// lastAckedSeq returns the last high-water mark in the ack file, or
// -1 when none was written. The final line may itself be torn by the
// kill; a torn decimal prefix parses to at most the full value (and
// the full value was synced before it was written), so a torn tail
// only ever weakens the assertion, never corrupts it.
func lastAckedSeq(t *testing.T, path string) int {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return -1
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	last := -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if n, err := strconv.Atoi(strings.TrimSpace(sc.Text())); err == nil {
			last = n
		}
	}
	return last
}
