package serve

import (
	"math"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
)

// TestShardedServiceDurableRestart runs the full verification pipeline
// into a WAL-backed history, shuts everything down, and reopens the
// data directory like a restarted daemon: every alarm the service
// verified must come back from the recovered store — the serve-layer
// statement of the durability contract, through the same per-shard
// persist stage alarmd runs in production.
func TestShardedServiceDurableRestart(t *testing.T) {
	v, stream := testSetup(t)
	stream = stream[:2000]
	b := loadedBroker(t, stream, 8)
	defer b.Close()

	dir := t.TempDir()
	db, err := docstore.OpenDB(dir, docstore.DurableOptions{
		Partitions:         4,
		SyncInterval:       time.Millisecond,
		CheckpointInterval: 50 * time.Millisecond, // checkpoints rotate WALs mid-run
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHistory(db)
	if err != nil {
		t.Fatal(err)
	}

	svc, err := New(b, "alarms", "g-dur", v, h, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	waitFor(t, 30*time.Second, "all alarms verified", func() bool {
		return svc.Records() >= len(stream)
	})
	svc.Stop()
	if err := svc.Err(); err != nil {
		t.Fatal(err)
	}
	if got := svc.Records(); got != len(stream) {
		t.Fatalf("records = %d, want %d", got, len(stream))
	}
	verified := svc.Verified()
	svc.Close()
	// Daemon shutdown: final-sync and close the store.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": recover the store from disk and rebuild the history
	// over it, as alarmd does when -data-dir points at existing state.
	db2, err := docstore.OpenDB(dir, docstore.DurableOptions{Partitions: 4, SyncInterval: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	h2, err := core.NewHistory(db2)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Len() != len(stream) {
		t.Fatalf("recovered history holds %d alarms, want %d", h2.Len(), len(stream))
	}
	recovered, err := h2.RecentAlarms(0)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[int64]bool, len(recovered))
	for _, a := range recovered {
		byID[a.ID] = true
	}
	for _, vr := range verified {
		if !byID[vr.AlarmID] {
			t.Fatalf("verified alarm %d missing after durable restart", vr.AlarmID)
		}
	}
}

// TestShardedServiceDurableVerdicts: the stored row is the only record
// of a verdict, so a restart keeps every verdict the service reached.
// A WAL-backed service drains the stream and is closed; the reopened
// history holds one verdict per alarm, each bit-identical to
// VerifyBatchInto's over the same alarms.
func TestShardedServiceDurableVerdicts(t *testing.T) {
	v, stream := testSetup(t)
	stream = stream[:1500]
	b := loadedBroker(t, stream, 8)
	defer b.Close()

	dir := t.TempDir()
	opts := docstore.DurableOptions{Partitions: 4, SyncInterval: time.Millisecond, CheckpointInterval: 50 * time.Millisecond}
	db, err := docstore.OpenDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHistory(db)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(b, "alarms", "g-verdicts", v, h, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	waitFor(t, 30*time.Second, "all alarms verified", func() bool {
		return svc.Records() >= len(stream) || svc.Err() != nil
	})
	svc.Close()
	if err := svc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	opts.SyncInterval, opts.CheckpointInterval = -1, -1
	db2, err := docstore.OpenDB(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	h2, err := core.NewHistory(db2)
	if err != nil {
		t.Fatal(err)
	}
	_, got := h2.Verdicts()
	if len(got) != len(stream) {
		t.Fatalf("reopened history holds %d verdicts, want %d", len(got), len(stream))
	}
	want := make([]alarm.Verification, len(stream))
	if err := v.VerifyBatchInto(stream, want); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int64]alarm.Verification, len(got))
	for _, g := range got {
		if _, dup := byID[g.AlarmID]; dup {
			t.Fatalf("alarm %d stored two verdicts", g.AlarmID)
		}
		byID[g.AlarmID] = g
	}
	for _, w := range want {
		g, ok := byID[w.AlarmID]
		if !ok {
			t.Fatalf("alarm %d: no stored verdict after the restart", w.AlarmID)
		}
		if g.Predicted != w.Predicted || math.Float64bits(g.Probability) != math.Float64bits(w.Probability) ||
			g.ModelName != w.ModelName || g.ModelVersion != w.ModelVersion {
			t.Fatalf("alarm %d: stored verdict %+v, VerifyBatchInto %+v", w.AlarmID, g, w)
		}
	}
}
