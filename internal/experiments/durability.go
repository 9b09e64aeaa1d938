package experiments

import (
	"fmt"
	"os"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
	"alarmverify/internal/serve"
)

// DurabilityResult quantifies what WAL durability costs and buys: the
// same blast workload through a memory-only history and a WAL-backed
// one (group fsync at the default interval), then a crash-style reopen
// of the durable directory.
type DurabilityResult struct {
	// Records is the blast size per cell.
	Records int
	// MemPerSec and WALPerSec are the measured service throughputs.
	MemPerSec, WALPerSec float64
	// WALRatio is WALPerSec / MemPerSec — the durability tax. The PR 7
	// acceptance bar keeps this ≥ 0.7 at the default sync interval.
	WALRatio float64
	// Recovered is how many alarms the reopened store replayed, and
	// RecoveryTime how long Open took to do it.
	Recovered    int
	RecoveryTime time.Duration
}

// durabilityCell drains a preloaded backlog through the sharded
// service into the given history and returns the wall-clock rate.
func durabilityCell(v *core.Verifier, replay []alarm.Alarm, h *core.History) (float64, error) {
	b, _, err := preload(replay, 4, 2, codec.FastCodec{})
	if err != nil {
		return 0, err
	}
	defer b.Close()
	cfg := serve.DefaultConfig()
	cfg.Shards = 2
	cfg.Consumer.MaxPerBatch = 512
	cfg.Consumer.PollTimeout = 2 * time.Millisecond
	svc, err := serve.New(b, "alarms", "durability", v, h, cfg)
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	start := time.Now()
	svc.Start()
	if err := waitAccounted(svc, len(replay), 120*time.Second); err != nil {
		return 0, err
	}
	svc.Stop()
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0, fmt.Errorf("cell elapsed %s", elapsed)
	}
	return float64(len(replay)) / elapsed.Seconds(), nil
}

// Durability runs the WAL-cost experiment: identical blast workloads
// against a memory-only and a WAL-backed history (default group-fsync
// interval), then reopens the durable directory the way a restarted
// alarmd would and reports replay size and time. EXPERIMENTS.md and
// PERFORMANCE.md record the measured tax.
func Durability(env *Env) (*DurabilityResult, error) {
	n := 4096
	if env.Scale.Name == "paper" {
		n = 16384
	}
	verifier, replay, err := streamVerifier(env, n)
	if err != nil {
		return nil, err
	}

	memHist, err := core.NewHistory(docstore.NewDBWithPartitions(4))
	if err != nil {
		return nil, err
	}
	memRate, err := durabilityCell(verifier, replay, memHist)
	if err != nil {
		return nil, fmt.Errorf("memory cell: %w", err)
	}

	dir, err := os.MkdirTemp("", "durability-exp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	db, err := docstore.OpenDB(dir, docstore.DurableOptions{Partitions: 4})
	if err != nil {
		return nil, err
	}
	walHist, err := core.NewHistory(db)
	if err != nil {
		return nil, err
	}
	walRate, err := durabilityCell(verifier, replay, walHist)
	if err != nil {
		return nil, fmt.Errorf("wal cell: %w", err)
	}
	if err := db.Close(); err != nil {
		return nil, err
	}

	start := time.Now()
	db2, err := docstore.OpenDB(dir, docstore.DurableOptions{Partitions: 4, SyncInterval: -1, CheckpointInterval: -1})
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	recoveryTime := time.Since(start)
	h2, err := core.NewHistory(db2)
	if err != nil {
		return nil, err
	}
	recovered := h2.Len()
	if err := db2.Close(); err != nil {
		return nil, err
	}
	if recovered != len(replay) {
		return nil, fmt.Errorf("recovered %d alarms, want %d", recovered, len(replay))
	}

	res := &DurabilityResult{
		Records:      len(replay),
		MemPerSec:    memRate,
		WALPerSec:    walRate,
		Recovered:    recovered,
		RecoveryTime: recoveryTime,
	}
	if memRate > 0 {
		res.WALRatio = walRate / memRate
	}
	return res, nil
}

// RenderDurability formats the experiment.
func RenderDurability(r *DurabilityResult) string {
	return fmt.Sprintf(
		"Durability tax (%d alarms through the sharded service):\n"+
			"  memory-only : %8.0f alarms/s\n"+
			"  WAL-backed  : %8.0f alarms/s  (%.0f%% of memory; group fsync every %s)\n"+
			"  recovery    : %d alarms replayed in %s on reopen\n",
		r.Records, r.MemPerSec, r.WALPerSec, 100*r.WALRatio,
		docstore.DefaultWALSyncInterval, r.Recovered, r.RecoveryTime.Round(time.Millisecond))
}
