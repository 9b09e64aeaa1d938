package core

import (
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/dataset"
	"alarmverify/internal/docstore"
	"alarmverify/internal/ml"
	"alarmverify/internal/risk"
	"alarmverify/internal/textproc"
)

func testWorld() *dataset.World {
	gaz := risk.NewGazetteer(risk.GazetteerConfig{
		NumPlaces:      200,
		NumBigCities:   6,
		MaxZIPsPerCity: 4,
		Seed:           11,
	})
	return dataset.NewWorldWith(gaz, 11)
}

func testAlarms(n int) (*dataset.World, []alarm.Alarm) {
	w := testWorld()
	cfg := dataset.DefaultSitasysConfig()
	cfg.NumAlarms = n
	cfg.NumDevices = 300
	cfg.PayloadBytes = 0
	return w, dataset.GenerateSitasys(w, cfg)
}

// newTestApp joins a consumer app to group on b's topic as member id.
func newTestApp(b *broker.Broker, topicName, group, id string,
	verifier *Verifier, history *History, cfg ConsumerConfig) (*ConsumerApp, error) {
	topic, err := b.Topic(topicName)
	if err != nil {
		return nil, err
	}
	cons, err := broker.NewConsumer(b, group, topic, id)
	if err != nil {
		return nil, err
	}
	return NewConsumerAppFor(cons, topic.Partitions(), verifier, history, cfg), nil
}

// processBatches runs n batches through the one consume path — Drain,
// Decode, Classify, Persist, CommitBatch, ReleaseBatch — on the calling
// goroutine, and returns the alarms verified. A batch is committed only
// once it has persisted.
func processBatches(c *ConsumerApp, n int) (int, error) {
	total := 0
	for i := 0; i < n; i++ {
		b := c.Drain()
		c.Decode(b)
		err := c.Classify(b)
		if err == nil {
			err = c.Persist(b)
		}
		if err == nil {
			err = c.CommitBatch(b)
		}
		if err != nil {
			c.ReleaseBatch(b)
			return total, err
		}
		total += b.Len()
		c.ReleaseBatch(b)
	}
	return total, nil
}

// fastVerifier trains a small random forest quickly.
func fastVerifier(t testing.TB, history []alarm.Alarm) *Verifier {
	t.Helper()
	rfCfg := ml.DefaultRandomForestConfig()
	rfCfg.NumTrees = 12
	rfCfg.MaxDepth = 12
	cfg := DefaultVerifierConfig()
	cfg.Classifier = ml.NewRandomForest(rfCfg)
	v, err := Train(history, cfg)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return v
}

func TestNewClassifierCoversAllAlgorithms(t *testing.T) {
	for _, a := range Algorithms() {
		c, err := NewClassifier(a)
		if err != nil {
			t.Errorf("%s: %v", a, err)
		}
		if c == nil || c.Name() != string(a) {
			t.Errorf("%s: classifier name %q", a, c.Name())
		}
	}
	if _, err := NewClassifier("boosted-stumps"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestTrainTimeIsTheWholeTrain: TrainTime runs from the top of Train to
// the compiled snapshot, so with a model that fits in no time it is still
// the labelling and encoding around the fit — nearly the wall time of
// the call.
func TestTrainTimeIsTheWholeTrain(t *testing.T) {
	_, alarms := testAlarms(4000)
	cfg := DefaultVerifierConfig()
	cfg.Classifier = stubClassifier{}
	start := time.Now()
	v, err := Train(alarms, cfg)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Stats().TrainTime; got > wall || got < wall/2 {
		t.Fatalf("TrainTime %v for a call that took %v", got, wall)
	}
}

func TestTrainAndVerify(t *testing.T) {
	_, alarms := testAlarms(6000)
	v := fastVerifier(t, alarms[:4000])
	st := v.Stats()
	if st.TrainRecords != 4000 || st.Features == 0 || st.TrainTime <= 0 {
		t.Errorf("stats = %+v", st)
	}
	ver, err := v.Verify(&alarms[5000])
	if err != nil {
		t.Fatal(err)
	}
	if ver.Probability < 0.5 || ver.Probability > 1 {
		t.Errorf("confidence %f outside [0.5, 1]", ver.Probability)
	}
	if ver.ModelName != "rf" || ver.AlarmID != alarms[5000].ID {
		t.Errorf("verification = %+v", ver)
	}
	cm, err := v.EvaluateHoldout(alarms[4000:])
	if err != nil {
		t.Fatal(err)
	}
	if cm.Accuracy() < 0.75 {
		t.Errorf("holdout accuracy %.3f too low", cm.Accuracy())
	}
}

func TestTrainRejectsEmpty(t *testing.T) {
	if _, err := Train(nil, DefaultVerifierConfig()); err == nil {
		t.Error("empty history accepted")
	}
}

func TestVerifyHandlesUnseenCategories(t *testing.T) {
	_, alarms := testAlarms(2000)
	v := fastVerifier(t, alarms)
	novel := alarms[0]
	novel.ZIP = "9999"            // never seen
	novel.SensorType = "lidar-x1" // future sensor
	if _, err := v.Verify(&novel); err != nil {
		t.Fatalf("unseen categories must not fail: %v", err)
	}
}

func TestVerifierWithRiskFeature(t *testing.T) {
	w, alarms := testAlarms(3000)
	var incidents []textproc.Incident
	for _, p := range w.Gaz.Places()[:30] {
		incidents = append(incidents, textproc.Incident{
			Location: p.Name, Topic: textproc.TopicFire,
		})
	}
	model := risk.BuildModel(w.Gaz, incidents)
	cfg := DefaultVerifierConfig()
	rfCfg := ml.DefaultRandomForestConfig()
	rfCfg.NumTrees = 10
	rfCfg.MaxDepth = 10
	cfg.Classifier = ml.NewRandomForest(rfCfg)
	cfg.Risk = model
	cfg.RiskKind = risk.Normalized
	v, err := Train(alarms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Verify(&alarms[0]); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryHistogram(t *testing.T) {
	db := docstore.NewDB()
	h, err := NewHistory(db)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 48; i++ {
		h.Record(&alarm.Alarm{
			ID:        int64(i + 1),
			DeviceMAC: "dev-a",
			ZIP:       "8000",
			Timestamp: base.Add(time.Duration(i) * time.Hour),
			Duration:  30,
		}, alarm.Verification{})
	}
	h.Record(&alarm.Alarm{ID: 100, DeviceMAC: "dev-b", ZIP: "8001",
		Timestamp: base, Duration: 400}, alarm.Verification{})

	buckets, err := h.DeviceHistogram("dev-a", base, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d, want 2 days", len(buckets))
	}
	for i, b := range buckets {
		if b.Count != 24 {
			t.Errorf("day %d count = %d, want 24", i, b.Count)
		}
	}
	// Device filter must exclude dev-b.
	buckets, _ = h.DeviceHistogram("dev-b", base, 24*time.Hour)
	if len(buckets) != 1 || buckets[0].Count != 1 {
		t.Errorf("dev-b histogram = %v", buckets)
	}
	// Since filter.
	buckets, _ = h.DeviceHistogram("dev-a", base.Add(24*time.Hour), 24*time.Hour)
	if len(buckets) != 1 {
		t.Errorf("since filter broken: %v", buckets)
	}
	byLoc, err := h.CountByLocation()
	if err != nil {
		t.Fatal(err)
	}
	if byLoc["8000"] != 48 || byLoc["8001"] != 1 {
		t.Errorf("counts by location = %v", byLoc)
	}
}

func TestEndToEndProducerConsumer(t *testing.T) {
	_, alarms := testAlarms(4000)
	v := fastVerifier(t, alarms[:2000])

	b := broker.New()
	topic, err := b.CreateTopic("alarms", 4)
	if err != nil {
		t.Fatal(err)
	}
	prod := NewProducerApp(topic, codec.FastCodec{})
	prod.Threads = 2
	stats, err := prod.Replay(alarms[2000:], 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent != 2000 {
		t.Fatalf("sent %d", stats.Sent)
	}

	db := docstore.NewDB()
	h, err := NewHistory(db)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConsumerConfig()
	cfg.MaxPerBatch = 2000
	cons, err := newTestApp(b, "alarms", "verify", "c1", v, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	// One batch through the stages by hand, to read its breakdown.
	batch := cons.Drain()
	cons.Decode(batch)
	if err := cons.Classify(batch); err != nil {
		t.Fatal(err)
	}
	if err := cons.Persist(batch); err != nil {
		t.Fatal(err)
	}
	if err := cons.CommitBatch(batch); err != nil {
		t.Fatal(err)
	}
	n, times := batch.Len(), batch.Times
	cons.ReleaseBatch(batch)
	if n != 2000 {
		t.Fatalf("processed %d alarms, want 2000", n)
	}
	if _, vs := h.Verdicts(); len(vs) != 2000 {
		t.Fatalf("verifications = %d", len(vs))
	}
	if h.Len() != 2000 {
		t.Fatalf("history holds %d alarms", h.Len())
	}
	// Serving runs no histogram sweep: the replay consumer times its
	// own for Figure 12.
	if times.ML <= 0 || times.Deserialize <= 0 || times.Ingest <= 0 || times.History != 0 {
		t.Errorf("component times not recorded as the stages fill them: %+v", times)
	}
}

func TestConsumerExactlyOnceAcrossRestart(t *testing.T) {
	_, alarms := testAlarms(1000)
	v := fastVerifier(t, alarms[:500])
	b := broker.New()
	topic, _ := b.CreateTopic("alarms", 2)
	prod := NewProducerApp(topic, codec.FastCodec{})
	if _, err := prod.Replay(alarms[500:], 0); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConsumerConfig()
	cfg.MaxPerBatch = 200
	c1, err := newTestApp(b, "alarms", "g", "c1", v, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := processBatches(c1, 1) // processes and commits 200
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()
	// "Restart": a new consumer in the same group picks up from the
	// committed offsets.
	c2, err := newTestApp(b, "alarms", "g", "c2", v, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	total := n1
	for i := 0; i < 10 && total < 500; i++ {
		n, err := processBatches(c2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		total += n
	}
	if total != 500 {
		t.Fatalf("exactly-once violated: %d alarms processed in total", total)
	}
}

func TestCustomerPolicyRouting(t *testing.T) {
	p := DefaultCustomerPolicy()
	mk := func(typ alarm.Type, pred alarm.Label, prob float64) (alarm.Alarm, alarm.Verification) {
		return alarm.Alarm{Type: typ}, alarm.Verification{Predicted: pred, Probability: prob}
	}
	a, ver := mk(alarm.TypeIntrusion, alarm.True, 0.95)
	if got := p.Decide(&a, ver); got != RouteToARC {
		t.Errorf("confident true → %s, want arc", got)
	}
	a, ver = mk(alarm.TypeIntrusion, alarm.True, 0.6)
	if got := p.Decide(&a, ver); got != RouteToCustomer {
		t.Errorf("uncertain true → %s, want customer", got)
	}
	a, ver = mk(alarm.TypeIntrusion, alarm.False, 0.9)
	if got := p.Decide(&a, ver); got != RouteToCustomer {
		t.Errorf("likely false → %s, want customer", got)
	}
	p.SuppressTechnical = true
	a, ver = mk(alarm.TypeTechnical, alarm.True, 0.99)
	if got := p.Decide(&a, ver); got != RouteSuppressed {
		t.Errorf("technical with suppression → %s, want suppressed", got)
	}
}

func TestOperatorQueuePriority(t *testing.T) {
	q := NewOperatorQueue()
	push := func(id int64, pred alarm.Label, prob float64) {
		q.Push(alarm.Alarm{ID: id},
			alarm.Verification{AlarmID: id, Predicted: pred, Probability: prob})
	}
	push(1, alarm.False, 0.9) // P(true) = 0.1
	push(2, alarm.True, 0.7)
	push(3, alarm.True, 0.99)
	push(4, alarm.False, 0.55) // P(true) = 0.45
	if q.Len() != 4 {
		t.Fatalf("len = %d", q.Len())
	}
	wantOrder := []int64{3, 2, 4, 1}
	for i, want := range wantOrder {
		it, ok := q.Pop()
		if !ok || it.Alarm.ID != want {
			t.Fatalf("pop %d = %v, want id %d", i, it, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop from empty queue succeeded")
	}
}

func TestOperatorQueueFIFOWithinPriority(t *testing.T) {
	q := NewOperatorQueue()
	for i := int64(1); i <= 3; i++ {
		q.Push(alarm.Alarm{ID: i},
			alarm.Verification{AlarmID: i, Predicted: alarm.True, Probability: 0.8})
		time.Sleep(time.Millisecond)
	}
	for want := int64(1); want <= 3; want++ {
		it, _ := q.Pop()
		if it.Alarm.ID != want {
			t.Fatalf("equal-priority order broken: got %d want %d", it.Alarm.ID, want)
		}
	}
}
