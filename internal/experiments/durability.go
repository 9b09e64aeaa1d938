package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
	"alarmverify/internal/serve"
)

// DurabilityResult quantifies what WAL durability costs and buys: the
// same blast workload through a memory-only history and a WAL-backed
// one (group fsync at the default interval), the two cells interleaved
// durabilityRounds times, then a crash-style reopen of the last durable
// directory.
type DurabilityResult struct {
	// Records is the blast size per cell: the scale's replay stream.
	Records int
	// MemPerSec and WALPerSec are the median service throughputs of
	// the rounds.
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
// service into the given history and returns the wall-clock rate, up to
// the last record accounted for.
func durabilityCell(v *core.Verifier, replay []alarm.Alarm, h *core.History) (float64, error) {
	b, _, err := preload(replay, 4, 2, codec.FastCodec{})
	if err != nil {
		return 0, err
	}
	defer b.Close()
	cfg := serve.DefaultConfig()
	cfg.Shards = 2
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
	// The drain ends at the last accounted record; Stop's wait for the
	// parked shards is not the store's cost.
	elapsed := time.Since(start)
	svc.Stop()
	if elapsed <= 0 {
		return 0, fmt.Errorf("cell elapsed %s", elapsed)
	}
	return float64(len(replay)) / elapsed.Seconds(), nil
}

// durabilityRounds is how many times Durability runs the memory and
// WAL cells, interleaved, before taking each one's median.
const durabilityRounds = 3

// Durability runs the WAL-cost experiment: identical blast workloads —
// the scale's replay stream, as Fig 12 and the cache ablation replay —
// against a memory-only and a WAL-backed history (default group-fsync
// interval), interleaved durabilityRounds times, then reopens the last
// durable directory the way a restarted alarmd would and reports replay
// size and time. EXPERIMENTS.md and PERFORMANCE.md record the measured
// tax.
func Durability(env *Env) (*DurabilityResult, error) {
	verifier, replay, err := streamVerifier(env, env.Scale.StreamAlarms)
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp("", "durability-exp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var memRates, walRates []float64
	var dir string
	for round := 0; round < durabilityRounds; round++ {
		memHist, err := core.NewHistory(docstore.NewDBWithPartitions(4))
		if err != nil {
			return nil, err
		}
		memRate, err := durabilityCell(verifier, replay, memHist)
		if err != nil {
			return nil, fmt.Errorf("memory cell: %w", err)
		}
		memRates = append(memRates, memRate)

		dir = filepath.Join(root, fmt.Sprint(round))
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
		walRates = append(walRates, walRate)
	}
	memRate, walRate := median(memRates), median(walRates)

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

// median sorts xs and returns its middle (the upper one of an even
// count).
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// RenderDurability formats the experiment.
func RenderDurability(r *DurabilityResult) string {
	return fmt.Sprintf(
		"Durability tax (%d alarms through the sharded service, median of %d interleaved rounds):\n"+
			"  memory-only : %8.0f alarms/s\n"+
			"  WAL-backed  : %8.0f alarms/s  (%.0f%% of memory; group fsync every %s)\n"+
			"  recovery    : %d alarms replayed in %s on reopen\n",
		r.Records, durabilityRounds, r.MemPerSec, r.WALPerSec, 100*r.WALRatio,
		docstore.DefaultWALSyncInterval, r.Recovered, r.RecoveryTime.Round(time.Millisecond))
}
