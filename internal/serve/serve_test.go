package serve

import (
	"sync"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
	"alarmverify/internal/dataset"
	"alarmverify/internal/docstore"
	"alarmverify/internal/ml"
	"alarmverify/internal/risk"
)

var (
	setupOnce    sync.Once
	testVerifier *core.Verifier
	testStream   []alarm.Alarm
)

// testSetup trains one small verifier and generates one replay stream
// shared by every test in the package.
func testSetup(t testing.TB) (*core.Verifier, []alarm.Alarm) {
	t.Helper()
	setupOnce.Do(func() {
		gaz := risk.NewGazetteer(risk.GazetteerConfig{
			NumPlaces:      200,
			NumBigCities:   6,
			MaxZIPsPerCity: 4,
			Seed:           11,
		})
		w := dataset.NewWorldWith(gaz, 11)
		cfg := dataset.DefaultSitasysConfig()
		cfg.NumAlarms = 6000
		cfg.NumDevices = 300
		cfg.PayloadBytes = 0
		alarms := dataset.GenerateSitasys(w, cfg)
		rfCfg := ml.DefaultRandomForestConfig()
		rfCfg.NumTrees = 12
		rfCfg.MaxDepth = 12
		vcfg := core.DefaultVerifierConfig()
		vcfg.Classifier = ml.NewRandomForest(rfCfg)
		v, err := core.Train(alarms[:2000], vcfg)
		if err != nil {
			panic(err)
		}
		testVerifier = v
		testStream = alarms[2000:]
	})
	return testVerifier, testStream
}

// loadedBroker creates a broker with a preloaded "alarms" topic.
func loadedBroker(t testing.TB, alarms []alarm.Alarm, partitions int) *broker.Broker {
	t.Helper()
	b := broker.New()
	topic, err := b.CreateTopic("alarms", partitions)
	if err != nil {
		t.Fatal(err)
	}
	prod := core.NewProducerApp(topic, codec.FastCodec{})
	prod.Threads = 2
	stats, err := prod.Replay(alarms, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != len(alarms) {
		t.Fatalf("preloaded %d of %d alarms", stats.Sent, len(alarms))
	}
	return b
}

func waitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func testConfig(shards int) Config {
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.Consumer.MaxPerBatch = 256
	return cfg
}

// uniqueIDs counts distinct alarm IDs across verifications.
func uniqueIDs(vs []alarm.Verification) int {
	seen := make(map[int64]struct{}, len(vs))
	for _, v := range vs {
		seen[v.AlarmID] = struct{}{}
	}
	return len(seen)
}

func TestShardedServiceVerifiesAllExactlyOnce(t *testing.T) {
	v, stream := testSetup(t)
	b := loadedBroker(t, stream, 8)
	defer b.Close()
	h, err := core.NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(b, "alarms", "g", v, h, testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// The four shards must split the eight partitions evenly.
	seen := make(map[int]int)
	for _, sh := range svc.Stats().Shards {
		if len(sh.Partitions) != 2 {
			t.Errorf("shard %s owns %v, want 2 partitions", sh.ID, sh.Partitions)
		}
		for _, p := range sh.Partitions {
			seen[p]++
		}
	}
	if len(seen) != 8 {
		t.Errorf("assignment covers %d partitions, want 8", len(seen))
	}

	svc.Start()
	waitFor(t, 30*time.Second, "all alarms verified", func() bool {
		return svc.Records() >= len(stream)
	})
	svc.Stop()

	if got := svc.Records(); got != len(stream) {
		t.Fatalf("records = %d, want exactly %d", got, len(stream))
	}
	vs := svc.Verified()
	if len(vs) != len(stream) || uniqueIDs(vs) != len(stream) {
		t.Fatalf("verified %d (%d unique), want %d unique — exactly-once violated",
			len(vs), uniqueIDs(vs), len(stream))
	}
	if h.Len() != len(stream) {
		t.Fatalf("history holds %d alarms, want %d", h.Len(), len(stream))
	}
	// Graceful stop committed everything that was processed.
	committed, err := svc.Committed()
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, off := range committed {
		sum += off
	}
	if sum != int64(len(stream)) {
		t.Fatalf("committed %d records, want %d", sum, len(stream))
	}
	st := svc.Stats()
	if st.PerSec <= 0 || st.Batches == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	for _, sh := range st.Shards {
		if sh.Err != nil {
			t.Errorf("shard %s error: %v", sh.ID, sh.Err)
		}
	}
}

func TestGracefulStopResumesExactlyOnce(t *testing.T) {
	v, stream := testSetup(t)
	b := loadedBroker(t, stream, 4)
	defer b.Close()

	// Both services store into one history, as a restarted daemon
	// reopens its store.
	h, err := core.NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2)
	cfg.Consumer.MaxPerBatch = 128
	svc1, err := New(b, "alarms", "g", v, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc1.Start()
	waitFor(t, 30*time.Second, "partial progress", func() bool {
		return svc1.Records() >= 500
	})
	svc1.Close() // graceful drain: in-flight batches persist and commit
	n1 := svc1.Records()
	if n1 >= len(stream) {
		t.Skip("first service drained everything before stop; nothing to resume")
	}

	svc2, err := New(b, "alarms", "g", v, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	svc2.Start()
	waitFor(t, 30*time.Second, "remaining alarms", func() bool {
		return n1+svc2.Records() >= len(stream)
	})
	svc2.Stop()

	if total := n1 + svc2.Records(); total != len(stream) {
		t.Fatalf("restart processed %d in total, want exactly %d", total, len(stream))
	}
	// The shared history holds both services' verdicts.
	all := svc2.Verified()
	if len(all) != len(stream) || uniqueIDs(all) != len(stream) {
		t.Fatalf("coverage %d (%d unique) of %d — records lost or duplicated across restart",
			len(all), uniqueIDs(all), len(stream))
	}
}

func TestRebalanceUnderConcurrentJoinLeave(t *testing.T) {
	v, stream := testSetup(t)
	b := loadedBroker(t, stream, 8)
	defer b.Close()
	topic, err := b.Topic("alarms")
	if err != nil {
		t.Fatal(err)
	}

	h, err := core.NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2)
	cfg.Consumer.MaxPerBatch = 64 // many small batches so the churn lands mid-stream
	svc, err := New(b, "alarms", "g", v, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.Start()

	waitFor(t, 30*time.Second, "initial progress", func() bool {
		return svc.Records() >= 300
	})
	// An external member joins the group (stealing partitions without
	// ever polling them) and leaves again — two rebalances the shards
	// must survive without losing records.
	ext, err := broker.NewConsumer(b, "g", topic, "external")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	ext.Close()

	// At-least-once across rebalances: every alarm is eventually
	// verified; duplicates are permitted only around the rebalance.
	waitFor(t, 30*time.Second, "full coverage after rebalance", func() bool {
		return uniqueIDs(svc.Verified()) >= len(stream)
	})
	// All partitions end fully committed once processing settles.
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

	st := svc.Stats()
	var rebalances int64
	for _, sh := range st.Shards {
		rebalances += sh.Rebalances
		if sh.Err != nil {
			t.Errorf("shard %s error: %v", sh.ID, sh.Err)
		}
	}
	if rebalances == 0 {
		t.Error("no shard refreshed its assignment despite membership churn")
	}
	if got := uniqueIDs(svc.Verified()); got != len(stream) {
		t.Fatalf("coverage %d unique of %d", got, len(stream))
	}
	if svc.Records() < len(stream) {
		t.Fatalf("records %d < %d", svc.Records(), len(stream))
	}
}

func TestBackpressureBoundsInFlightBatches(t *testing.T) {
	v, stream := testSetup(t)
	stream = stream[:2000]
	b := loadedBroker(t, stream, 4)
	defer b.Close()
	h, err := core.NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	// A slow persist stage: without bounded queues intake would race
	// ahead and buffer the whole topic in memory.
	h.SetSimulatedRTT(500 * time.Microsecond)

	cfg := testConfig(1)
	cfg.Consumer.MaxPerBatch = 64
	svc, err := New(b, "alarms", "g", v, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.Start()
	waitFor(t, 60*time.Second, "all alarms verified", func() bool {
		return svc.Records() >= len(stream)
	})
	svc.Stop()

	// In flight = decoded but not yet persisted: at most one batch in
	// each stage goroutine plus the two queues of pipelineDepth.
	const maxInFlight = 2*pipelineDepth + 3
	for _, sh := range svc.Stats().Shards {
		if sh.InFlightPeak > maxInFlight {
			t.Errorf("shard %s in-flight peak %d exceeds bound %d — backpressure broken",
				sh.ID, sh.InFlightPeak, maxInFlight)
		}
		if sh.InFlightPeak == 0 {
			t.Errorf("shard %s never had a batch in flight", sh.ID)
		}
	}
	if svc.Records() != len(stream) {
		t.Fatalf("records = %d, want %d", svc.Records(), len(stream))
	}
}

// The sharded service over a partitioned history with a simulated
// round-trip: each shard's persist stage stores its own batch, and
// nothing is lost — every alarm is in the store, exactly once, by the
// time the service has drained.
func TestShardedServicePartitionedHistory(t *testing.T) {
	v, stream := testSetup(t)
	b := loadedBroker(t, stream, 8)
	defer b.Close()
	h, err := core.NewHistory(docstore.NewDBWithPartitions(4))
	if err != nil {
		t.Fatal(err)
	}
	h.SetSimulatedRTT(200 * time.Microsecond)

	svc, err := New(b, "alarms", "g-hist", v, h, testConfig(4))
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
	if got := svc.Records(); got != len(stream) {
		t.Fatalf("records = %d, want %d", got, len(stream))
	}
	if h.Len() != len(stream) {
		t.Fatalf("history holds %d alarms, want %d", h.Len(), len(stream))
	}
}

// TestIdleShardFollowsRebalance: a shard parked on an idle topic
// follows a member joining and leaving — the notification ends its
// parked drain, so the barrier and the refresh run without a record to
// wake it — and then serves what is produced afterwards, exactly once.
func TestIdleShardFollowsRebalance(t *testing.T) {
	v, stream := testSetup(t)
	b := broker.New()
	defer b.Close()
	topic, err := b.CreateTopic("alarms", 4)
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(b, "alarms", "g", v, h, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.Start()
	time.Sleep(20 * time.Millisecond) // let the shard find nothing and park

	owns := func(n int) func() bool {
		return func() bool { return len(svc.Stats().Shards[0].Partitions) == n }
	}
	ext, err := broker.NewConsumer(b, "g", topic, "external")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the shard to give up half its partitions", owns(2))
	ext.Close()
	waitFor(t, 5*time.Second, "the shard to take every partition back", owns(4))

	const n = 100
	if _, err := core.NewProducerApp(topic, codec.FastCodec{}).Replay(stream[:n], 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "the records produced after the rebalances", func() bool {
		return svc.Records() >= n
	})
	svc.Stop()
	if err := svc.Err(); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().Shards[0].Rebalances; got < 2 {
		t.Errorf("shard refreshed %d times, want one per membership change", got)
	}
	if got := svc.Records(); got != n || uniqueIDs(svc.Verified()) != n {
		t.Fatalf("verified %d records (%d unique), want %d once each", got, uniqueIDs(svc.Verified()), n)
	}
}

// TestStopIdleServiceIsPrompt: Stop on shards parked on an idle topic
// returns within the drain's idle bound, not after a timeout of
// anyone's choosing.
func TestStopIdleServiceIsPrompt(t *testing.T) {
	b := broker.New()
	defer b.Close()
	if _, err := b.CreateTopic("alarms", 4); err != nil {
		t.Fatal(err)
	}
	svc, err := New(b, "alarms", "g", nil, nil, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.Start()
	time.Sleep(20 * time.Millisecond) // let the shards find nothing and park
	start := time.Now()
	svc.Stop()
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("Stop on an idle service took %s", took)
	}
}
