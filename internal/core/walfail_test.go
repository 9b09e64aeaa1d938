//go:build linux

package core

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/docstore"
)

// breakWALs fails the store's logs underneath their writers: every
// descriptor this process holds on a *.wal file under dir is pointed
// at a read-only /dev/null, so the next append's write fails however
// privileged the test runs (a chmod does not stop root).
func breakWALs(t *testing.T, dir string) {
	t.Helper()
	ro, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd to find the log descriptors through")
	}
	broken := 0
	for _, e := range fds {
		link, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || !strings.HasPrefix(link, dir) || !strings.HasSuffix(link, ".wal") {
			continue
		}
		fd, _ := strconv.Atoi(e.Name())
		if err := syscall.Dup3(int(ro.Fd()), fd, 0); err != nil {
			t.Fatal(err)
		}
		broken++
	}
	if broken == 0 {
		t.Fatal("found no open WAL to break")
	}
}

// TestWALFailureStopsTheShard pins "committed ⇒ durable" under a disk
// error: once a WAL append has failed, the persist stage's durability
// barrier reports it, Persist errors, and the batch's offsets are
// never committed — with or without write-behind between the shard
// and the store.
func TestWALFailureStopsTheShard(t *testing.T) {
	for _, writeBehind := range []bool{false, true} {
		_, alarms := testAlarms(700)
		v := fastVerifier(t, alarms[:300])
		b := broker.New()
		defer b.Close()
		topic, _ := b.CreateTopic("alarms", 1)
		if _, err := NewProducerApp(topic, codec.FastCodec{}).Replay(alarms[300:], 0); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		db, err := docstore.OpenDB(dir, docstore.DurableOptions{Partitions: 2, CheckpointInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewHistory(db)
		if err != nil {
			t.Fatal(err)
		}
		if writeBehind {
			h.EnableWriteBehind(0)
		}
		cfg := DefaultConsumerConfig()
		cfg.MaxPerBatch = 100
		app, err := NewConsumerApp(b, "alarms", "g", "c1", v, h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := app.ProcessBatches(1); err != nil || n != 100 {
			t.Fatalf("healthy batch: %d alarms, %v", n, err)
		}
		committed, _ := b.GroupCommitted("g")
		if committed[0] != 100 {
			t.Fatalf("healthy batch committed offset %d, want 100", committed[0])
		}

		breakWALs(t, dir)
		if _, err := app.ProcessBatches(1); err == nil {
			t.Fatalf("write-behind=%v: persist succeeded over a failed WAL", writeBehind)
		}
		if err := h.Flush(); err == nil {
			t.Fatal("the barrier stopped reporting the sticky error")
		}
		committed, _ = b.GroupCommitted("g")
		if committed[0] != 100 {
			t.Fatalf("write-behind=%v: offset %d committed for alarms that exist only in memory", writeBehind, committed[0])
		}
		app.Close()
		h.Close()
		if err := db.Close(); err == nil {
			t.Fatal("Close did not surface the WAL failure")
		}
	}
}
