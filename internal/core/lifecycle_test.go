package core

import (
	"sync"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/docstore"
	"alarmverify/internal/ml"
	"alarmverify/internal/modelreg"
)

// intrusionOverrides marks every intrusion alarm as a true alarm —
// the systematic operator correction the retrain tests inject.
func intrusionOverrides(alarms []alarm.Alarm) map[int64]alarm.Label {
	out := make(map[int64]alarm.Label)
	for i := range alarms {
		if alarms[i].Type == alarm.TypeIntrusion {
			out[alarms[i].ID] = alarm.True
		}
	}
	return out
}

func TestHistoryFeedbackRoundTrip(t *testing.T) {
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	if h.FeedbackCount() != 0 {
		t.Fatalf("fresh history has %d feedbacks", h.FeedbackCount())
	}
	at := time.Date(2016, 5, 4, 12, 0, 0, 0, time.UTC)
	h.RecordFeedback(Feedback{AlarmID: 7, DeviceMAC: "aa:bb", Verdict: alarm.True, At: at})
	h.RecordFeedback(Feedback{AlarmID: 9, DeviceMAC: "cc:dd", Verdict: alarm.False, At: at})
	// A second verdict for the same alarm: the later one must win.
	h.RecordFeedback(Feedback{AlarmID: 7, DeviceMAC: "aa:bb", Verdict: alarm.False, At: at.Add(time.Hour)})
	if h.FeedbackCount() != 3 {
		t.Fatalf("FeedbackCount = %d, want 3", h.FeedbackCount())
	}
	fbs, err := h.Feedbacks()
	if err != nil || len(fbs) != 3 {
		t.Fatalf("Feedbacks = %d records, %v", len(fbs), err)
	}
	if fbs[0].AlarmID != 7 || fbs[0].Verdict != alarm.True || !fbs[0].At.Equal(at) || fbs[0].DeviceMAC != "aa:bb" {
		t.Fatalf("feedback[0] = %+v", fbs[0])
	}
	labels, err := h.FeedbackLabels()
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 2 || labels[7] != alarm.False || labels[9] != alarm.False {
		t.Fatalf("FeedbackLabels = %v", labels)
	}
}

func TestHistoryRecentAlarmsRoundTrip(t *testing.T) {
	_, alarms := testAlarms(400)
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	h.RecordBatch(alarms)
	got, err := h.RecentAlarms(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(alarms) {
		t.Fatalf("RecentAlarms returned %d of %d", len(got), len(alarms))
	}
	byID := make(map[int64]alarm.Alarm, len(alarms))
	for _, a := range alarms {
		byID[a.ID] = a
	}
	for _, g := range got {
		want, ok := byID[g.ID]
		if !ok {
			t.Fatalf("unknown alarm %d returned", g.ID)
		}
		if g.DeviceMAC != want.DeviceMAC || g.ZIP != want.ZIP ||
			g.Duration != want.Duration || g.Type != want.Type ||
			g.ObjectType != want.ObjectType ||
			g.SensorType != want.SensorType || g.SoftwareVersion != want.SoftwareVersion {
			t.Fatalf("round-trip mismatch: got %+v want %+v", g, want)
		}
		if g.Timestamp.Unix() != want.Timestamp.Unix() {
			t.Fatalf("timestamp mismatch: %v vs %v", g.Timestamp, want.Timestamp)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].Timestamp.Before(got[i-1].Timestamp) {
			t.Fatalf("RecentAlarms not chronological at %d", i)
		}
	}
	limited, err := h.RecentAlarms(50)
	if err != nil || len(limited) != 50 {
		t.Fatalf("RecentAlarms(50) = %d, %v", len(limited), err)
	}
}

func TestTrainWithFeedbackOverridesLabels(t *testing.T) {
	_, alarms := testAlarms(3000)
	overrides := intrusionOverrides(alarms[:2000])
	if len(overrides) == 0 {
		t.Fatal("no intrusion alarms in train window")
	}
	rfCfg := ml.DefaultRandomForestConfig()
	rfCfg.NumTrees = 12
	rfCfg.MaxDepth = 12
	cfg := DefaultVerifierConfig()
	cfg.Classifier = ml.NewRandomForest(rfCfg)
	corrected, err := TrainWithFeedback(alarms[:2000], overrides, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseline := fastVerifier(t, alarms[:2000])

	holdOverrides := intrusionOverrides(alarms[2000:])
	correctedCM, err := corrected.EvaluateWithFeedback(alarms[2000:], holdOverrides)
	if err != nil {
		t.Fatal(err)
	}
	baselineCM, err := baseline.EvaluateWithFeedback(alarms[2000:], holdOverrides)
	if err != nil {
		t.Fatal(err)
	}
	if correctedCM.Accuracy() <= baselineCM.Accuracy() {
		t.Fatalf("feedback-trained accuracy %.4f not above baseline %.4f",
			correctedCM.Accuracy(), baselineCM.Accuracy())
	}
}

// stubClassifier is an untrainable constant model used to force the
// shadow evaluation to reject a candidate.
type stubClassifier struct{}

func (stubClassifier) Name() string                                   { return "rf" }
func (stubClassifier) Fit(*ml.RowLayout, *ml.SparseRows, []int) error { return nil }

// ProbSparse makes the stub its own serving form (ml.Compile).
func (stubClassifier) ProbSparse(rows *ml.SparseRows, out [][2]float64) {
	for i := range out[:rows.Len()] {
		out[i] = [2]float64{0.1, 0.9}
	}
}

func TestRetrainerSwapsAndRegisters(t *testing.T) {
	_, alarms := testAlarms(3000)
	live := fastVerifier(t, alarms[:800])
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	h.RecordBatch(alarms[800:2600])
	for id, verdict := range intrusionOverrides(alarms[800:2600]) {
		h.RecordFeedback(Feedback{AlarmID: id, Verdict: verdict, At: time.Now()})
	}
	reg, err := modelreg.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRetrainer(live, h, reg, RetrainerConfig{
		Verifier: DefaultVerifierConfig(),
		NewClassifier: func() (ml.Classifier, error) {
			cfg := ml.DefaultRandomForestConfig()
			cfg.NumTrees = 12
			cfg.MaxDepth = 12
			return ml.NewRandomForest(cfg), nil
		},
	})
	res, err := rt.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped {
		t.Fatalf("candidate rejected: %+v", res)
	}
	if res.Version != 1 || live.ModelVersion() != 1 {
		t.Fatalf("version = %d, live = %d, want 1", res.Version, live.ModelVersion())
	}
	if res.FeedbackRecords == 0 {
		t.Fatalf("no feedback folded into the train set: %+v", res)
	}
	m, ok, err := reg.Latest()
	if err != nil || !ok {
		t.Fatalf("registry latest: ok=%v err=%v", ok, err)
	}
	if m.Version != 1 || m.FeedbackRecords != res.FeedbackRecords || m.Holdout.Records == 0 {
		t.Fatalf("registered manifest = %+v", m)
	}
	st := rt.Stats()
	if st.Attempts != 1 || st.Swaps != 1 || st.Rejected != 0 {
		t.Fatalf("stats = %+v", st)
	}

	// A second retrain must stack version 2.
	res2, err := rt.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Swapped && (res2.Version != 2 || live.ModelVersion() != 2) {
		t.Fatalf("second retrain version = %d, live = %d", res2.Version, live.ModelVersion())
	}
}

func TestRetrainerRejectsWorseCandidate(t *testing.T) {
	_, alarms := testAlarms(2000)
	live := fastVerifier(t, alarms[:1000])
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	h.RecordBatch(alarms[1000:])
	rt := NewRetrainer(live, h, nil, RetrainerConfig{
		Verifier:      DefaultVerifierConfig(),
		NewClassifier: func() (ml.Classifier, error) { return stubClassifier{}, nil },
	})
	res, err := rt.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	if res.Swapped {
		t.Fatalf("constant-true candidate admitted: %+v", res)
	}
	if live.ModelVersion() != 0 {
		t.Fatalf("live model version changed to %d", live.ModelVersion())
	}
	if st := rt.Stats(); st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetrainerFeedbackTrigger(t *testing.T) {
	_, alarms := testAlarms(2000)
	live := fastVerifier(t, alarms[:600])
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	h.RecordBatch(alarms[600:])
	rt := NewRetrainer(live, h, nil, RetrainerConfig{
		MinFeedback: 5,
		CheckEvery:  2 * time.Millisecond,
		Verifier:    DefaultVerifierConfig(),
		NewClassifier: func() (ml.Classifier, error) {
			cfg := ml.DefaultRandomForestConfig()
			cfg.NumTrees = 6
			cfg.MaxDepth = 8
			return ml.NewRandomForest(cfg), nil
		},
	})
	rt.Start()
	defer rt.Stop()
	for i := 0; i < 5; i++ {
		h.RecordFeedback(Feedback{AlarmID: alarms[600+i].ID, Verdict: alarm.True, At: time.Now()})
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if rt.Stats().Attempts >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := rt.Stats(); st.Attempts < 1 {
		t.Fatalf("feedback threshold never triggered a retrain: %+v", st)
	}
}

// TestRetrainerBacksOffOnFailure: feedback arriving before the
// history holds enough alarms keeps the trigger armed (a failed
// retrain must not swallow the verdicts), but retries must back off
// instead of re-running every CheckEvery tick.
func TestRetrainerBacksOffOnFailure(t *testing.T) {
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	_, alarms := testAlarms(700)
	live := fastVerifier(t, alarms[:600])
	rt := NewRetrainer(live, h, nil, RetrainerConfig{
		MinFeedback: 3,
		CheckEvery:  2 * time.Millisecond,
		Verifier:    DefaultVerifierConfig(),
	})
	rt.Start()
	defer rt.Stop()
	// The history is empty, so every attempt fails with ErrNoHistory.
	for i := 0; i < 3; i++ {
		h.RecordFeedback(Feedback{AlarmID: int64(i + 1), Verdict: alarm.True, At: time.Now()})
	}
	// Wait for the failed attempt to be fully recorded: Attempts moves
	// when a retrain starts, LastErr only once it has failed.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && rt.Stats().LastErr == "" {
		time.Sleep(2 * time.Millisecond)
	}
	st := rt.Stats()
	if st.Attempts == 0 {
		t.Fatal("feedback threshold never triggered")
	}
	if st.LastErr == "" {
		t.Fatalf("empty-history retrain reported no error: %+v", st)
	}
	// Within the first second of backoff, a tick-rate retry loop would
	// have attempted hundreds of times; the backoff allows at most a
	// couple.
	time.Sleep(300 * time.Millisecond)
	if again := rt.Stats().Attempts; again > 2 {
		t.Fatalf("failed retrain retried %d times in 300ms — backoff not applied", again)
	}
}

// equalVerification compares everything except the timing field
// (sameVerification in batchequiv_test.go is its error-reporting
// sibling).
func equalVerification(a, b alarm.Verification) bool {
	return sameVerification(a, b) == nil
}

// matchesSnapshot reports whether got is exactly exp, element-wise.
func matchesSnapshot(got, exp []alarm.Verification) bool {
	for i := range got {
		if !equalVerification(got[i], exp[i]) {
			return false
		}
	}
	return true
}

// TestHotSwapStoresOneModelVersionPerBatch: the stored row records which
// model reached its verdict. With a Verifier.Swap between
// processBatches(app, 1) calls, every batch's stored rows carry the one
// modelVersion its Classify pinned, each verdict that model's, and the
// rows stored after the swap carry the new version.
func TestHotSwapStoresOneModelVersionPerBatch(t *testing.T) {
	_, alarms := testAlarms(1600)
	vA, vB := fastVerifier(t, alarms[:600]), fastVerifier(t, alarms[200:800])
	vA.withVersion(1)
	vB.withVersion(2)
	stream := alarms[800:]
	want := map[int]map[int64]alarm.Verification{}
	for version, v := range map[int]*Verifier{1: vA, 2: vB} {
		out := make([]alarm.Verification, len(stream))
		if err := v.VerifyBatchInto(stream, out); err != nil {
			t.Fatal(err)
		}
		want[version] = make(map[int64]alarm.Verification, len(out))
		for _, w := range out {
			want[version][w.AlarmID] = w
		}
	}

	b := broker.New()
	defer b.Close()
	topic, err := b.CreateTopic("alarms", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProducerApp(topic, codec.FastCodec{}).Replay(stream, 0); err != nil {
		t.Fatal(err)
	}
	h, err := NewHistory(docstore.NewDBWithPartitions(4))
	if err != nil {
		t.Fatal(err)
	}
	live := &Verifier{}
	live.Swap(vA)
	cfg := DefaultConsumerConfig()
	cfg.MaxPerBatch = 100
	app, err := newTestApp(b, "alarms", "swap", "c1", live, h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	const batches, swapAt = 8, 4
	var sizes []int
	for i := 0; i < batches; i++ {
		if i == swapAt {
			live.Swap(vB)
		}
		n, err := processBatches(app, 1)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, n)
	}

	// Verdicts come back in ingest order, so batch i's rows are the
	// next sizes[i].
	_, got := h.Verdicts()
	at := 0
	for i, n := range sizes {
		version := 1
		if i >= swapAt {
			version = 2
		}
		if n == 0 || at+n > len(got) {
			t.Fatalf("batch %d: %d alarms, %d verdicts stored from row %d", i, n, len(got), at)
		}
		for _, g := range got[at : at+n] {
			if g.ModelVersion != version {
				t.Fatalf("batch %d: a row carries model version %d, want %d", i, g.ModelVersion, version)
			}
			if err := sameVerification(g, want[version][g.AlarmID]); err != nil {
				t.Fatalf("batch %d, alarm %d: %v", i, g.AlarmID, err)
			}
		}
		at += n
	}
	if at != len(got) || at != len(stream) {
		t.Fatalf("%d verdicts stored for %d alarms in %d batches, want %d", len(got), at, batches, len(stream))
	}
}

// TestHotSwapRaceHammer hammers lock-free hot swaps concurrently with
// Verify and VerifyBatchInto across all four classifiers. Every batch
// result must be bit-identical to exactly one of the two snapshots'
// per-alarm outputs — a batch can never straddle a swap — and every
// single-alarm result must match one snapshot. Run under -race this
// is the swap-safety proof.
func TestHotSwapRaceHammer(t *testing.T) {
	_, alarms := testAlarms(1400)
	probe := alarms[1200:1264]
	smallClassifier := func(algo Algorithm) ml.Classifier {
		switch algo {
		case RandomForest:
			cfg := ml.DefaultRandomForestConfig()
			cfg.NumTrees = 8
			cfg.MaxDepth = 8
			return ml.NewRandomForest(cfg)
		case LogisticRegression:
			cfg := ml.DefaultLogisticRegressionConfig()
			cfg.MaxIterations = 40
			return ml.NewLogisticRegression(cfg)
		case SupportVectorMachine:
			cfg := ml.DefaultSVMConfig()
			cfg.MaxIterations = 60
			return ml.NewSVM(cfg)
		case DeepNeuralNetwork:
			cfg := ml.DefaultDNNConfig()
			cfg.MaxEpochs = 3
			cfg.MiniBatch = 100
			return ml.NewDNN(cfg)
		}
		return nil
	}
	for _, algo := range Algorithms() {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			train := func(lo, hi int) *Verifier {
				cfg := DefaultVerifierConfig()
				cfg.Classifier = smallClassifier(algo)
				v, err := Train(alarms[lo:hi], cfg)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			vA := train(0, 900)
			vB := train(300, 1200)
			expect := func(v *Verifier) []alarm.Verification {
				out := make([]alarm.Verification, len(probe))
				for i := range probe {
					ver, err := v.Verify(&probe[i])
					if err != nil {
						t.Fatal(err)
					}
					out[i] = ver
				}
				return out
			}
			expA, expB := expect(vA), expect(vB)
			if matchesSnapshot(expA, expB) {
				t.Fatalf("%s: both snapshots predict identically; hammer would prove nothing", algo)
			}

			live := &Verifier{}
			live.Swap(vA)
			stop := make(chan struct{})
			errs := make(chan string, 8)
			var readers, swapper sync.WaitGroup

			// Swapper: flip between the two snapshots until the readers
			// are done.
			swapper.Add(1)
			go func() {
				defer swapper.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if i%2 == 0 {
						live.Swap(vB)
					} else {
						live.Swap(vA)
					}
				}
			}()
			// Batch readers: every batch must match exactly one snapshot.
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for i := 0; i < 60; i++ {
						got := make([]alarm.Verification, len(probe))
						if err := live.VerifyBatchInto(probe, got); err != nil {
							errs <- err.Error()
							return
						}
						if !matchesSnapshot(got, expA) && !matchesSnapshot(got, expB) {
							errs <- "batch result straddles a swap"
							return
						}
					}
				}()
			}
			// Per-alarm reader: each call must match one snapshot.
			readers.Add(1)
			go func() {
				defer readers.Done()
				for i := 0; i < 200; i++ {
					idx := i % len(probe)
					got, err := live.Verify(&probe[idx])
					if err != nil {
						errs <- err.Error()
						return
					}
					if !equalVerification(got, expA[idx]) && !equalVerification(got, expB[idx]) {
						errs <- "per-alarm result matches neither snapshot"
						return
					}
				}
			}()
			// Stats reader: Info must always be internally consistent.
			readers.Add(1)
			go func() {
				defer readers.Done()
				wantA, wantB := vA.Info(), vB.Info()
				for i := 0; i < 400; i++ {
					info := live.Info()
					if info != wantA && info != wantB {
						errs <- "Info mixes fields from two snapshots"
						return
					}
				}
			}()

			readers.Wait()
			close(stop)
			swapper.Wait()
			select {
			case failure := <-errs:
				t.Fatalf("%s: %s", algo, failure)
			default:
			}
		})
	}
}
