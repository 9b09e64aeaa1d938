package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/dataset"
	"alarmverify/internal/ml"
	"alarmverify/internal/risk"
	"alarmverify/internal/textproc"
)

// flippedOverrides gives every fifth alarm the verdict its Δt label is
// not, so the overrides change the labels they reach.
func flippedOverrides(alarms []alarm.Alarm, deltaT time.Duration) map[int64]alarm.Label {
	out := make(map[int64]alarm.Label)
	for i := 0; i < len(alarms); i += 5 {
		a := &alarms[i]
		out[a.ID] = 1 - alarm.DurationLabel(time.Duration(a.Duration*float64(time.Second)), deltaT)
	}
	return out
}

// testRiskModel is a risk model over the world's first places.
func testRiskModel(w *dataset.World) *risk.Model {
	var incidents []textproc.Incident
	for i, p := range w.Gaz.Places()[:15] {
		for k := 0; k <= i%4; k++ {
			incidents = append(incidents, textproc.Incident{Location: p.Name, Topic: textproc.TopicFire})
		}
	}
	return risk.BuildModel(w.Gaz, incidents)
}

// savedModel is the classifier's model file.
func savedModel(t *testing.T, c ml.Classifier) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ml.SaveClassifier(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainRowsMatchDenseFit: Train encodes the alarms with the serving
// AlarmEncoder and fits on those rows, and the model it saves is byte
// for byte the one Fit makes on the rows dataset.Encode builds from the
// same alarms' labelled records (the experiments' path) — for each of
// the four classifiers, for a forest also with each kind of risk (Binary
// is a numeric schema column that is 0/1 throughout, which the forest
// keeps as a bitset, Absolute one it keeps as numbers), all with
// operator overrides on.
func TestTrainRowsMatchDenseFit(t *testing.T) {
	w, alarms := testAlarms(3000)
	riskModel := testRiskModel(w)
	rf := func() ml.Classifier {
		cfg := ml.DefaultRandomForestConfig()
		cfg.NumTrees, cfg.MaxDepth = 12, 14
		return ml.NewRandomForest(cfg)
	}
	lr := func() ml.Classifier {
		cfg := ml.DefaultLogisticRegressionConfig()
		cfg.MaxIterations = 60
		return ml.NewLogisticRegression(cfg)
	}
	svm := func() ml.Classifier {
		cfg := ml.DefaultSVMConfig()
		cfg.MaxIterations = 100
		return ml.NewSVM(cfg)
	}
	dnn := func() ml.Classifier {
		cfg := ml.DefaultDNNConfig()
		cfg.MaxEpochs = 3
		return ml.NewDNN(cfg)
	}
	cases := []struct {
		name string
		cls  func() ml.Classifier
		risk *risk.Kind
	}{
		{"rf", rf, nil},
		{"rf_normalized", rf, ptr(risk.Normalized)},
		{"rf_absolute", rf, ptr(risk.Absolute)},
		{"rf_binary", rf, ptr(risk.Binary)},
		{"lr", lr, nil},
		{"lr_normalized", lr, ptr(risk.Normalized)},
		{"svm_normalized", svm, ptr(risk.Normalized)},
		{"dnn_normalized", dnn, ptr(risk.Normalized)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultVerifierConfig()
			cfg.Classifier = tc.cls()
			if tc.risk != nil {
				cfg.Risk, cfg.RiskKind = riskModel, *tc.risk
			}
			feedback := flippedOverrides(alarms, cfg.DeltaT)
			v, err := TrainWithFeedback(alarms, feedback, cfg)
			if err != nil {
				t.Fatal(err)
			}

			labeled := dataset.ToLabeled(alarms, cfg.DeltaT)
			for i := range labeled {
				if verdict, ok := feedback[alarms[i].ID]; ok {
					labeled[i].Label = verdict
				}
			}
			if cfg.Risk != nil {
				dataset.AttachRisk(labeled, cfg.Risk, cfg.RiskKind)
				checkRiskValues(t, labeled, cfg.RiskKind)
			}
			l, rows, y, err := dataset.Encode(labeled)
			if err != nil {
				t.Fatal(err)
			}
			ref := tc.cls()
			if err := ref.Fit(l, rows, y); err != nil {
				t.Fatal(err)
			}
			if got, want := savedModel(t, v.snap.Load().model), savedModel(t, ref); !bytes.Equal(got, want) {
				t.Fatalf("Train saved %d bytes that differ from the %d of Fit on dataset.Encode's rows", len(got), len(want))
			}
			if got := v.Stats().Features; got != l.Width() {
				t.Fatalf("Stats().Features = %d, the layout is %d wide", got, l.Width())
			}
		})
	}
}

func ptr[T any](v T) *T { return &v }

// checkRiskValues makes sure a case tests what it is named for: Binary
// risk holds both 0 and 1 and nothing else, the other kinds something
// else too.
func checkRiskValues(t *testing.T, labeled []alarm.LabeledAlarm, kind risk.Kind) {
	t.Helper()
	seen0, seen1, other := false, false, false
	for i := range labeled {
		switch labeled[i].Risk {
		case 0:
			seen0 = true
		case 1:
			seen1 = true
		default:
			other = true
		}
	}
	if binary := seen0 && seen1 && !other; binary != (kind == risk.Binary) {
		t.Fatalf("risk kind %v: 0 seen %v, 1 seen %v, other values %v", kind, seen0, seen1, other)
	}
}

// TestEvaluateMatchesVerify: the hold-out is scored on every core, and
// the confusion matrix is the tally of one Verify per alarm against the
// same truth — operator verdicts where given, the Δt label otherwise —
// at sizes around the chunk bound.
func TestEvaluateMatchesVerify(t *testing.T) {
	_, alarms := testAlarms(7000)
	v := fastVerifier(t, alarms[:1000])
	holdout := alarms[1000:]
	feedback := flippedOverrides(holdout, v.DeltaT())
	for _, n := range []int{0, 1, evalChunk - 1, evalChunk, evalChunk + 1, 6000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			var want ml.ConfusionMatrix
			for i := range holdout[:n] {
				a := &holdout[i]
				ver, err := v.Verify(a)
				if err != nil {
					t.Fatal(err)
				}
				truth, ok := feedback[a.ID]
				if !ok {
					truth = alarm.DurationLabel(time.Duration(a.Duration*float64(time.Second)), v.DeltaT())
				}
				switch {
				case ver.Predicted == alarm.True && truth == alarm.True:
					want.TP++
				case ver.Predicted == alarm.True:
					want.FP++
				case truth == alarm.False:
					want.TN++
				default:
					want.FN++
				}
			}
			got, err := v.EvaluateWithFeedback(holdout[:n], feedback)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("EvaluateWithFeedback = %+v, per-alarm Verify tally %+v", got, want)
			}
		})
	}
}

// TestVerifyLatencyKeepsNanoseconds: a single Verify takes a few
// microseconds, and LatencyMS carries its fraction of a microsecond
// rather than a count of whole ones.
func TestVerifyLatencyKeepsNanoseconds(t *testing.T) {
	_, alarms := testAlarms(400)
	v := fastVerifier(t, alarms[:200])
	for i := 0; i < 200; i++ {
		ver, err := v.Verify(&alarms[200+i])
		if err != nil {
			t.Fatal(err)
		}
		us := ver.LatencyMS * 1000
		if math.Abs(us-math.Round(us)) > 1e-6 {
			return
		}
	}
	t.Fatal("200 Verify calls each reported a whole number of microseconds")
}
