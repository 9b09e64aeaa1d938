//go:build !race

package core

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/docstore"
	"alarmverify/internal/metrics"
	"alarmverify/internal/ml"
)

// The persist stage's allocation and footprint budgets. They hold
// because an alarm is stored as a typed row — no map, no boxed value,
// no heap object per alarm — and would not survive a return to one
// document per alarm (19.4 allocations per recorded alarm, ≈ 21 per
// histogram, 854 B and 13 live objects per stored alarm before the
// typed store). The race runtime inflates all three, hence the tag.

func budgetHistory(t *testing.T) *History {
	t.Helper()
	h, err := NewHistory(docstore.NewDBWithPartitions(4))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestRecordBatchAllocBudget(t *testing.T) {
	_, alarms := testAlarms(512 * 8)
	h := budgetHistory(t)
	next := 0
	record := func() {
		h.RecordBatch(alarms[next : next+512])
		if err := h.Flush(); err != nil {
			t.Fatal(err)
		}
		next = (next + 512) % len(alarms)
	}
	record() // grow the row batch once
	perAlarm := testing.AllocsPerRun(20, record) / 512
	t.Logf("RecordBatch(512)+Flush: %.3f allocations per alarm", perAlarm)
	// Reads ≈ 0.015, the lanes' chunks and the id column's growth; 0.03
	// while every column regrew by copy, 0.14 while the device index's
	// posting lists regrew as they filled.
	if perAlarm > 0.025 {
		t.Fatalf("RecordBatch(512)+Flush: %.3f allocations per alarm, budget 0.025", perAlarm)
	}
}

func TestDeviceHistogramsAllocBudget(t *testing.T) {
	_, alarms := testAlarms(4096)
	h := budgetHistory(t)
	h.RecordBatch(alarms)
	seen := make(map[string]bool)
	var macs []string
	for i := range alarms[:512] {
		if mac := alarms[i].DeviceMAC; !seen[mac] {
			seen[mac] = true
			macs = append(macs, mac)
		}
	}
	since := alarms[0].Timestamp.Add(-30 * 24 * time.Hour)
	perDevice := testing.AllocsPerRun(20, func() {
		if _, err := h.DeviceHistograms(macs, since, 24*time.Hour); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(macs))
	t.Logf("DeviceHistograms over %d devices: %.2f allocations per device", len(macs), perDevice)
	if perDevice > 4 {
		t.Fatalf("DeviceHistograms over %d devices: %.2f allocations per device, budget 4", len(macs), perDevice)
	}
}

func TestStoredAlarmFootprintBudget(t *testing.T) {
	const n = 100_000
	_, alarms := testAlarms(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := budgetHistory(t)
	for lo := 0; lo < n; lo += 512 {
		h.RecordBatch(alarms[lo:min(lo+512, n)])
	}
	if h.Len() != n {
		t.Fatalf("stored %d alarms, want %d", h.Len(), n)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytes := float64(after.HeapAlloc-before.HeapAlloc) / n
	objects := float64(after.HeapObjects-before.HeapObjects) / n
	t.Logf("%.0f B and %.2f live heap objects per stored alarm", bytes, objects)
	if bytes > 250 || objects > 1.5 {
		t.Fatalf("%.0f B and %.2f live heap objects per stored alarm, budget 250 B and 1.5", bytes, objects)
	}
	runtime.KeepAlive(alarms)
}

// The per-batch budgets. An event-driven consume path hands the
// pipeline many small batches, so what a batch costs before its first
// alarm is on the open-loop hot path: an idle poll cycle must cost
// nothing, and a batch of one alarm little (35 allocations before the
// per-batch scratch moved onto the pooled Batch and the store's sweep).

// budgetApp wires a consumer of a 4-partition topic holding the given
// alarms to a history, draining at most one alarm a batch.
func budgetApp(t *testing.T, alarms []alarm.Alarm) *ConsumerApp {
	t.Helper()
	b := broker.New()
	t.Cleanup(func() { b.Close() })
	topic, err := b.CreateTopic("alarms", 4)
	if err != nil {
		t.Fatal(err)
	}
	prod := broker.NewProducer(topic)
	var c codec.FastCodec
	var buf []byte
	for i := range alarms {
		if buf, err = c.Marshal(buf[:0], &alarms[i]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := prod.SendAt([]byte(alarms[i].DeviceMAC), buf, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	_, train := testAlarms(800)
	cfg := DefaultConsumerConfig()
	cfg.MaxPerBatch = 1
	cfg.PollTimeout = time.Millisecond
	cfg.Metrics = metrics.NewPipeline()
	app, err := NewConsumerApp(b, "alarms", "budget", "c1", fastVerifier(t, train), budgetHistory(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	return app
}

func TestIdleDrainAllocBudget(t *testing.T) {
	app := budgetApp(t, nil)
	idle := func() {
		b := app.Drain()
		if b.Len() != 0 {
			t.Fatal("idle drain returned records")
		}
		app.ReleaseBatch(b)
	}
	idle() // the pooled batch and the consumer's deadline timer
	if allocs := testing.AllocsPerRun(20, idle); allocs != 0 {
		t.Fatalf("one idle PollTimeout cycle of Drain: %.1f allocations, budget 0", allocs)
	}
}

func TestOneAlarmBatchAllocBudget(t *testing.T) {
	_, alarms := testAlarms(400)
	app := budgetApp(t, alarms)
	one := func() {
		b := app.Drain()
		app.Decode(b)
		if b.Len() != 1 {
			t.Fatalf("drained %d alarms, want 1", b.Len())
		}
		if err := app.Classify(b); err != nil {
			t.Fatal(err)
		}
		if err := app.Persist(b); err != nil {
			t.Fatal(err)
		}
		if err := app.CommitBatch(b); err != nil {
			t.Fatal(err)
		}
		app.ReleaseBatch(b)
	}
	for i := 0; i < 100; i++ {
		one() // grow every scratch, intern the devices' strings
	}
	allocs := testing.AllocsPerRun(200, one)
	t.Logf("one-alarm batch, drain to release: %.1f allocations", allocs)
	if allocs > 3 { // reads 0; 2 while posting lists regrew and each new string was its own copy
		t.Fatalf("one-alarm batch, drain to release: %.1f allocations, budget 3", allocs)
	}
}

// TestDecodeAllocBudget: a record whose strings the interner has seen
// decodes without an allocation, payload and all — the payload is a view
// of the leased record (one copy per alarm before it was).
func TestDecodeAllocBudget(t *testing.T) {
	_, alarms := testAlarms(400)
	for i := range alarms {
		alarms[i].Payload = strings.Repeat("p", 256)
	}
	app := budgetApp(t, alarms)
	for i := 0; i < 300; i++ { // intern the devices' strings
		b := app.Drain()
		app.Decode(b)
		app.ReleaseBatch(b)
	}
	b := app.Drain()
	defer app.ReleaseBatch(b)
	allocs := testing.AllocsPerRun(100, func() {
		b.Alarms, b.Devices, b.Enqueued = b.Alarms[:0], b.Devices[:0], b.Enqueued[:0]
		app.Decode(b)
	})
	if b.Len() != 1 || len(b.Alarms[0].Payload) != 256 {
		t.Fatalf("decoded %d alarms, payload %d bytes; want 1 and 256", b.Len(), len(b.Alarms[0].Payload))
	}
	if allocs != 0 {
		t.Fatalf("decode of an interned record: %.1f allocations, budget 0", allocs)
	}
}

// TestClassifyScratchBudget: what a 512-alarm classify call keeps
// between batches is its sparse rows and probabilities, 30 bytes an
// alarm — 15 KB asked for, two 8 KB blocks once the allocator has
// rounded the slabs up, plus the pooled struct that holds them — where
// the dense feature matrix was 4 MB (512 rows × 1 001 float64s at the
// benchmark's scale). The bound leaves half a kilobyte for whatever
// else the test binary allocates meanwhile.
func TestClassifyScratchBudget(t *testing.T) {
	_, alarms := testAlarms(1312)
	v := fastVerifier(t, alarms[:800])
	out := make([]alarm.Verification, 512)
	runtime.GC()
	runtime.GC() // twice: the pooled scratch of earlier tests is gone
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := v.VerifyBatchInto(alarms[800:], out); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("first 512-alarm classify call allocated %d B", bytes)
	if bytes > 17<<10 {
		t.Fatalf("first 512-alarm classify call allocated %d B, budget 16 KB of slabs", bytes)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := v.VerifyBatchInto(alarms[800:], out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm 512-alarm classify call: %.1f allocations, budget 0", allocs)
	}
}

// TestStandingQueryAllocBudget: the dashboard's two group counts, asked
// again after one more alarm, fold that alarm into the partials the
// store kept — they do not rebuild a group per device per partition
// (1 300 to 2 400 allocations before the partials advanced).
func TestStandingQueryAllocBudget(t *testing.T) {
	_, alarms := testAlarms(4096 + 300)
	h := budgetHistory(t)
	h.RecordBatch(alarms[:4096])
	next := 4096
	ask := func() {
		h.Record(&alarms[next], alarm.Verification{AlarmID: alarms[next].ID, Probability: 0.5})
		next++
		if top, err := h.TopDevices(10); err != nil || len(top) != 10 {
			t.Fatalf("TopDevices(10) = %d rows, %v", len(top), err)
		}
		if _, err := h.CountByLocation(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		ask() // the first ask folds every row; the sweeps grow their slabs
	}
	before := h.AggPartials()
	allocs := testing.AllocsPerRun(200, ask)
	t.Logf("one alarm, TopDevices(10), CountByLocation: %.1f allocations", allocs)
	if allocs > 40 {
		t.Fatalf("one alarm, TopDevices(10), CountByLocation: %.1f allocations, budget 40", allocs)
	}
	if st := h.AggPartials(); st.Recomputed != before.Recomputed {
		t.Fatalf("%d partials recomputed over tail appends, want 0", st.Recomputed-before.Recomputed)
	}
}

// TestTrainFootprintBudget: Train at the benchmark harness's full scale
// (12 000 alarms, 1 001 features) allocates its vocabulary, its serving
// rows and what the model fits from them, and nothing the size of the
// dense design matrix (96 MB). The harness's forest (50 trees × depth
// 30) allocates its bitset view and the trees — about 22 MB, where
// fitting on the matrix allocated 130 MB, 12 MB of it the matrix's
// byte-per-cell view. Logistic regression (cut to a few iterations; the
// footprint does not grow with them) fits from the rows as they are.
func TestTrainFootprintBudget(t *testing.T) {
	train := harnessAlarms()[:12000]
	lr := ml.DefaultLogisticRegressionConfig()
	lr.MaxIterations = 20
	for _, tc := range []struct {
		name  string
		train func()
	}{
		{"rf", func() { harnessTrain(t, train) }},
		{"lr", func() {
			cfg := DefaultVerifierConfig()
			cfg.Classifier = ml.NewLogisticRegression(lr)
			if _, err := Train(train, cfg); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tc.train()
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("%s: Train at the harness's scale allocated %.1f MB", tc.name, mb)
		if mb > 32 {
			t.Errorf("%s: Train at the harness's scale allocated %.1f MB, budget 32 MB", tc.name, mb)
		}
	}
}

// TestOperatorQueryAllocBudget: each of the harness operator's four
// calls, on a warmed store the size of the one its ops_mix workload
// reads, allocates only the answer it returns — the ranking's slice,
// the alarms' slice, the bars, and the map of ZIPs, which costs what
// building that map costs. Before the store filled caller-owned scratch
// and merged the partitions' tails, the four read 5, 26, 10 and 10.
// And the retrain's newest-50 000 read of a 250 000-row history costs
// the alarms it returns and the rows it copies them from, not 50 000
// rows per partition: 174 MB before, about 22 MB now.
func TestOperatorQueryAllocBudget(t *testing.T) {
	h, alarms := operatorHistory(t, 30_000, 1_200)
	zips, err := h.CountByLocation()
	if err != nil {
		t.Fatal(err)
	}
	mapAllocs := testing.AllocsPerRun(20, func() {
		m := make(map[string]int, len(zips))
		for k, v := range zips {
			m[k] = v
		}
		zipSink = m
	})
	budget := map[string]float64{"top_devices": 1, "recent": 1, "by_location": mapAllocs, "device_histogram": 1}
	for _, q := range operatorQueries(h, alarms[0].DeviceMAC) {
		if err := q.call(); err != nil { // grow the pooled scratch once
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := q.call(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations, budget %.0f", q.name, allocs, budget[q.name])
		if allocs > budget[q.name] {
			t.Errorf("%s: %.0f allocations, budget %.0f", q.name, allocs, budget[q.name])
		}
	}

	// The first call on a fresh history, as a retrain finds the store:
	// minutes apart, with no batch of that size left in the pool.
	h, _ = operatorHistory(t, 250_000, 8_000)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if out, err := h.RecentAlarms(50_000); err != nil || len(out) != 50_000 {
		t.Fatalf("RecentAlarms(50 000) = %d alarms, %v", len(out), err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("RecentAlarms(50 000) on 250 000 rows: %.1f MB", mb)
	if mb > 28 {
		t.Errorf("RecentAlarms(50 000) on 250 000 rows: %.1f MB, budget 28 MB", mb)
	}
}

// TestReadBatchIngestFootprintBudget: a retrain's cold RecentAlarms(50 000)
// must not leave its row batch in the pool ingest draws from. The probe
// fills the batch ingest would draw next with 50 000 rows: rows that fit
// allocate nothing, so a fill that allocates no megabytes found the
// read's batch there, 14 MB of cells held for batches of a few hundred.
func TestReadBatchIngestFootprintBudget(t *testing.T) {
	h, _ := operatorHistory(t, 60_000, 1_200)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if out, err := h.RecentAlarms(50_000); err != nil || len(out) != 50_000 {
		t.Fatalf("RecentAlarms(50 000) = %d alarms, %v", len(out), err)
	}
	rows := h.rows.Get().(*docstore.Rows)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 50_000; i++ {
		rows.Next()
	}
	runtime.ReadMemStats(&after)
	rows.Reset()
	h.rows.Put(rows)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb < 1 {
		t.Fatalf("the ingest pool's batch took 50 000 rows in %.1f MB: it is the read's batch", mb)
	}
}

// zipSink keeps the reference map of TestOperatorQueryAllocBudget on
// the heap, where CountByLocation's answer lives.
var zipSink map[string]int
