package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/dataset"
	"alarmverify/internal/ml"
	"alarmverify/internal/risk"
	"alarmverify/internal/textproc"
)

// equivClassifiers builds one fast-training classifier per algorithm.
func equivClassifiers() map[Algorithm]ml.Classifier {
	rf := ml.DefaultRandomForestConfig()
	rf.NumTrees = 10
	rf.MaxDepth = 8
	svm := ml.DefaultSVMConfig()
	svm.MaxIterations = 200
	lr := ml.DefaultLogisticRegressionConfig()
	lr.MaxIterations = 80
	dnn := ml.DefaultDNNConfig()
	dnn.MaxEpochs = 15
	dnn.Patience = 3
	return map[Algorithm]ml.Classifier{
		RandomForest:         ml.NewRandomForest(rf),
		SupportVectorMachine: ml.NewSVM(svm),
		LogisticRegression:   ml.NewLogisticRegression(lr),
		DeepNeuralNetwork:    ml.NewDNN(dnn),
	}
}

// sameVerification compares everything except LatencyMS (pure timing
// noise), with probabilities compared bit-for-bit.
func sameVerification(a, b alarm.Verification) error {
	if a.AlarmID != b.AlarmID {
		return fmt.Errorf("alarm id %d != %d", a.AlarmID, b.AlarmID)
	}
	if a.Predicted != b.Predicted {
		return fmt.Errorf("predicted %v != %v", a.Predicted, b.Predicted)
	}
	if math.Float64bits(a.Probability) != math.Float64bits(b.Probability) {
		return fmt.Errorf("probability %x != %x (%v vs %v)",
			math.Float64bits(a.Probability), math.Float64bits(b.Probability),
			a.Probability, b.Probability)
	}
	if a.ModelName != b.ModelName || a.ModelVersion != b.ModelVersion {
		return fmt.Errorf("model %q v%d != %q v%d", a.ModelName, a.ModelVersion, b.ModelName, b.ModelVersion)
	}
	return nil
}

// TestVerifyBatchMatchesSequential is the acceptance property of the
// batched inference engine: for every one of the paper's four
// classifiers, VerifyBatchInto must produce verifications bit-identical
// (modulo latency) to calling Verify per alarm — across batch sizes,
// including chunk sizes that don't divide the batch.
func TestVerifyBatchMatchesSequential(t *testing.T) {
	_, alarms := testAlarms(900)
	train, live := alarms[:600], alarms[600:]
	for algo, cls := range equivClassifiers() {
		t.Run(string(algo), func(t *testing.T) {
			cfg := DefaultVerifierConfig()
			cfg.Classifier = cls
			v, err := Train(train, cfg)
			if err != nil {
				t.Fatalf("train: %v", err)
			}
			want := make([]alarm.Verification, len(live))
			for i := range live {
				want[i], err = v.Verify(&live[i])
				if err != nil {
					t.Fatalf("verify %d: %v", i, err)
				}
			}
			for _, size := range []int{1, 7, 64, len(live)} {
				for lo := 0; lo < len(live); lo += size {
					hi := min(lo+size, len(live))
					got := make([]alarm.Verification, len(live[lo:hi]))
					if err := v.VerifyBatchInto(live[lo:hi], got); err != nil {
						t.Fatalf("batch [%d:%d]: %v", lo, hi, err)
					}
					for i := range got {
						if err := sameVerification(got[i], want[lo+i]); err != nil {
							t.Fatalf("%s: batch size %d, alarm %d: %v", algo, size, lo+i, err)
						}
					}
				}
			}
		})
	}
}

// oracleVerify is the oracle the serving path is held to: the alarm
// goes the long way — labelled record, string row, the encoder's
// Transform — and its row must be, cell for cell, the one the serving
// AlarmEncoder writes; model, the snapshot's classifier compiled afresh,
// scores it.
func oracleVerify(t *testing.T, v *Verifier, model ml.SparseModel, a *alarm.Alarm) alarm.Verification {
	t.Helper()
	s := v.snap.Load()
	la := dataset.ToLabeled([]alarm.Alarm{*a}, s.deltaT)
	if s.hasRisk {
		dataset.AttachRisk(la, s.riskModel, s.riskKind)
	}
	row, err := dataset.LabeledToRow(&la[0], s.numExtras, s.hasRisk)
	if err != nil {
		t.Fatal(err)
	}
	var want, got ml.SparseRows
	want.Resize(s.rows.Layout(), 1)
	got.Resize(s.rows.Layout(), 1)
	if err := s.enc.Transform(row, want.Row(0)); err != nil {
		t.Fatal(err)
	}
	s.rows.Encode(a, got.Row(0))
	w, g := want.Row(0), got.Row(0)
	if !slices.Equal(w.Active, g.Active) || !slices.EqualFunc(w.Nums, g.Nums, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	}) {
		t.Fatalf("alarm %d: AlarmEncoder wrote %v, Transform %v", a.ID, g, w)
	}
	var p [1][2]float64
	model.ProbSparse(&want, p[:])
	class, prob := alarm.Label(0), p[0][0]
	if p[0][1] >= p[0][0] {
		class, prob = 1, p[0][1]
	}
	return alarm.Verification{AlarmID: a.ID, Predicted: class, Probability: prob, ModelName: s.model.Name()}
}

// TestServingMatchesDenseOracle: for each of the four classifiers, with
// the hybrid risk column and without, serving encodes each alarm into
// the row the schema encoder's Transform makes of its labelled record,
// and answers what the compiled model answers on that row, bit for bit
// — over a replay that holds devices, ZIP codes and sensor versions the
// encoder never saw, and alarm and property types outside the enums.
func TestServingMatchesDenseOracle(t *testing.T) {
	w, alarms := testAlarms(1500)
	train, live := alarms[:600], append([]alarm.Alarm(nil), alarms[600:]...)
	for i := range live {
		switch i % 50 {
		case 0:
			live[i].ZIP = "zip-never-seen"
		case 1:
			live[i].SensorType, live[i].SoftwareVersion = "sensor-new", "9.9.9"
		case 2:
			live[i].Type, live[i].ObjectType = alarm.Type(99), alarm.ObjectType(-3)
		}
	}
	var incidents []textproc.Incident
	for _, p := range w.Gaz.Places()[:15] {
		incidents = append(incidents, textproc.Incident{Location: p.Name, Topic: textproc.TopicFire})
	}
	riskModel := risk.BuildModel(w.Gaz, incidents)
	for _, hybrid := range []bool{false, true} {
		for algo, cls := range equivClassifiers() {
			t.Run(fmt.Sprintf("%s_risk=%v", algo, hybrid), func(t *testing.T) {
				cfg := DefaultVerifierConfig()
				cfg.Classifier = cls
				if hybrid {
					cfg.Risk, cfg.RiskKind = riskModel, risk.Normalized
				}
				v, err := Train(train, cfg)
				if err != nil {
					t.Fatal(err)
				}
				model, err := ml.Compile(cls, v.snap.Load().rows.Layout())
				if err != nil {
					t.Fatal(err)
				}
				got := make([]alarm.Verification, len(live))
				if err := v.VerifyBatchInto(live, got); err != nil {
					t.Fatal(err)
				}
				for i := range live {
					if err := sameVerification(got[i], oracleVerify(t, v, model, &live[i])); err != nil {
						t.Fatalf("alarm %d: serving vs oracle: %v", i, err)
					}
				}
			})
		}
	}
}

// TestVerifyBatchIntoValidatesLength covers the short-output error.
func TestVerifyBatchIntoValidatesLength(t *testing.T) {
	_, alarms := testAlarms(120)
	v := fastVerifier(t, alarms[:100])
	out := make([]alarm.Verification, 5)
	if err := v.VerifyBatchInto(alarms[100:], out); err == nil {
		t.Fatal("short output slice accepted")
	}
}

// TestClassifyStageMatchesSequential runs the pipeline's Classify
// stage, chunk by chunk, against one VerifyBatchInto call over the same
// decoded batch: for each chunk size, batches of 1, 255, 256, 257 and
// 512 alarms must verify bit-identically.
func TestClassifyStageMatchesSequential(t *testing.T) {
	_, alarms := testAlarms(1024)
	verifier := fastVerifier(t, alarms[:512])
	live := alarms[512:]
	want := make([]alarm.Verification, len(live))
	if err := verifier.VerifyBatchInto(live, want); err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 64, 32, 256, 7} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			for _, n := range []int{1, 255, 256, 257, 512} {
				app := newClassifyApp(t, verifier, live[:n], batch)
				b := app.Drain()
				app.Decode(b)
				if b.Len() != n {
					t.Fatalf("decoded %d alarms, want %d", b.Len(), n)
				}
				if err := app.Classify(b); err != nil {
					t.Fatal(err)
				}
				if len(b.Verified) != n {
					t.Fatalf("%d verifications for %d alarms", len(b.Verified), n)
				}
				for i := range b.Verified {
					if err := sameVerification(b.Verified[i], want[i]); err != nil {
						t.Fatalf("%d alarms, alarm %d: %v", n, i, err)
					}
				}
				app.ReleaseBatch(b)
				app.Close()
			}
		})
	}
}

// newClassifyApp preloads a single-partition topic with the alarms
// (one producer thread, so replay order is preserved end to end) and
// returns a consumer app configured to drain them in one batch and
// classify them in chunks of batch alarms.
func newClassifyApp(t *testing.T, verifier *Verifier, alarms []alarm.Alarm, batch int) *ConsumerApp {
	t.Helper()
	b := broker.New()
	t.Cleanup(func() { b.Close() })
	topic, err := b.CreateTopic("alarms", 1)
	if err != nil {
		t.Fatal(err)
	}
	prod := NewProducerApp(topic, codec.FastCodec{})
	if _, err := prod.Replay(alarms, 0); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConsumerConfig()
	cfg.ClassifyBatch = batch
	cfg.MaxPerBatch = len(alarms)
	app, err := NewConsumerApp(b, "alarms", "equiv", "c1", verifier, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return app
}
