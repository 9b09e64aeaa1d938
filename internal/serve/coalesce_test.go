package serve

import (
	"testing"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
)

// committedSum totals the committed offsets across partitions.
func committedSum(t testing.TB, svc *Service) int64 {
	t.Helper()
	committed, err := svc.Committed()
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, off := range committed {
		sum += off
	}
	return sum
}

// TestCoalescedCommitsExactlyOnce is the sharded-service acceptance
// test with commit coalescing on: batching many micro-batch commits
// into one interval commit must not change what the per-batch path
// guarantees — every alarm verified exactly once, every offset durable
// after a graceful stop (the shutdown flush).
func TestCoalescedCommitsExactlyOnce(t *testing.T) {
	v, stream := testSetup(t)
	b := loadedBroker(t, stream, 8)
	defer b.Close()
	h, err := core.NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(4)
	cfg.Consumer.MaxPerBatch = 64 // many batches per commit interval
	cfg.CommitInterval = 20 * time.Millisecond
	svc, err := New(b, "alarms", "coal", v, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.Start()
	waitFor(t, 30*time.Second, "all alarms verified", func() bool {
		return svc.Records() >= len(stream)
	})
	svc.Stop()
	if err := svc.Err(); err != nil {
		t.Fatal(err)
	}

	vs := svc.Verified()
	if len(vs) != len(stream) || uniqueIDs(vs) != len(stream) {
		t.Fatalf("verified %d (%d unique), want %d unique — exactly-once violated under coalescing",
			len(vs), uniqueIDs(vs), len(stream))
	}
	if sum := committedSum(t, svc); sum != int64(len(stream)) {
		t.Fatalf("committed %d records, want %d: shutdown must flush the pending commit", sum, len(stream))
	}
}

// TestCoalescedCommitShedDrainsBacklog re-runs the load-shedding
// scenario with coalescing on: shed batches' offsets must reach the
// pending set and the final flush, so the backlog still fully drains.
func TestCoalescedCommitShedDrainsBacklog(t *testing.T) {
	v, stream := testSetup(t)
	total := 4000
	if len(stream) < total {
		total = len(stream)
	}
	b := liveBroker(t, stream[:total], 4)
	defer b.Close()
	h, err := core.NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	h.SetSimulatedRTT(2 * time.Millisecond)

	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.ShedQueue = 512
	cfg.CommitInterval = 10 * time.Millisecond
	cfg.Consumer.MaxPerBatch = 128
	cfg.Consumer.PollTimeout = 2 * time.Millisecond
	svc, err := New(b, "alarms", "coalshed", v, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.Start()
	waitFor(t, 60*time.Second, "backlog drained", func() bool {
		lag, err := svc.Lag()
		return err == nil && lag == 0
	})
	svc.Stop()
	if err := svc.Err(); err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.ShedRecords == 0 {
		t.Fatal("nothing shed despite a backlog 8× the bound")
	}
	if got := st.Records + int(st.ShedRecords); got != total {
		t.Fatalf("processed %d + shed %d = %d, want %d", st.Records, st.ShedRecords, got, total)
	}
	if sum := committedSum(t, svc); sum != int64(total) {
		t.Fatalf("committed %d offsets, want %d: shed batches must still commit under coalescing", sum, total)
	}
}

// TestCoalescedCommitSurvivesRebalance: the rebalance barrier forces a
// flush of the pending commit before the assignment refresh, so
// membership churn costs at most redelivery (at-least-once), never
// loss — same contract as per-batch commits, wider window.
func TestCoalescedCommitSurvivesRebalance(t *testing.T) {
	v, stream := testSetup(t)
	b := loadedBroker(t, stream, 8)
	defer b.Close()
	topic, err := b.Topic("alarms")
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(2)
	cfg.Consumer.MaxPerBatch = 64
	cfg.CommitInterval = 15 * time.Millisecond
	svc, err := New(b, "alarms", "coalreb", v, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.Start()

	waitFor(t, 30*time.Second, "initial progress", func() bool {
		return svc.Records() >= 300
	})
	ext, err := broker.NewConsumer(b, "coalreb", topic, "external")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	ext.Close()

	waitFor(t, 30*time.Second, "full coverage after rebalance", func() bool {
		return uniqueIDs(svc.Verified()) >= len(stream)
	})
	waitFor(t, 30*time.Second, "commits to converge", func() bool {
		committed, err := svc.Committed()
		if err != nil {
			return false
		}
		var sum int64
		for _, off := range committed {
			sum += off
		}
		return sum == int64(len(stream))
	})
	svc.Stop()
	if got := uniqueIDs(svc.Verified()); got != len(stream) {
		t.Fatalf("coverage %d unique of %d", got, len(stream))
	}
}
