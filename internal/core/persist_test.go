package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alarmverify/internal/ml"
	"alarmverify/internal/modelreg"
	"alarmverify/internal/risk"
	"alarmverify/internal/textproc"
)

func TestVerifierSaveLoadRoundTrip(t *testing.T) {
	_, alarms := testAlarms(3000)
	v := fastVerifier(t, alarms[:2000])

	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadVerifier(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DeltaT() != v.DeltaT() {
		t.Errorf("delta-t changed: %v -> %v", v.DeltaT(), loaded.DeltaT())
	}
	if loaded.Stats().TrainRecords != v.Stats().TrainRecords {
		t.Errorf("stats lost: %+v", loaded.Stats())
	}
	// Identical verifications after reload.
	for i := 2000; i < 2100; i++ {
		a, err1 := v.Verify(&alarms[i])
		b, err2 := loaded.Verify(&alarms[i])
		if err1 != nil || err2 != nil {
			t.Fatalf("verify: %v %v", err1, err2)
		}
		if a.Predicted != b.Predicted || a.Probability != b.Probability {
			t.Fatalf("alarm %d verification changed after reload: %+v vs %+v",
				alarms[i].ID, a, b)
		}
	}
}

func TestVerifierSaveLoadWithRisk(t *testing.T) {
	w, alarms := testAlarms(2000)
	var incidents []textproc.Incident
	for _, p := range w.Gaz.Places()[:15] {
		incidents = append(incidents, textproc.Incident{Location: p.Name, Topic: textproc.TopicFire})
	}
	model := risk.BuildModel(w.Gaz, incidents)
	cfg := DefaultVerifierConfig()
	rf := ml.DefaultRandomForestConfig()
	rf.NumTrees = 6
	rf.MaxDepth = 8
	cfg.Classifier = ml.NewRandomForest(rf)
	cfg.Risk = model
	cfg.RiskKind = risk.Binary
	v, err := Train(alarms, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	// Without a risk model the load must refuse.
	if _, err := LoadVerifier(bytes.NewReader(saved), nil); err == nil {
		t.Error("risk-trained verifier loaded without a risk model")
	}
	loaded, err := LoadVerifier(bytes.NewReader(saved), model)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := v.Verify(&alarms[0])
	b, err := loaded.Verify(&alarms[0])
	if err != nil {
		t.Fatal(err)
	}
	if a.Predicted != b.Predicted || a.Probability != b.Probability {
		t.Errorf("risk verifier changed after reload: %+v vs %+v", a, b)
	}
}

func TestLoadVerifierRejectsGarbage(t *testing.T) {
	if _, err := LoadVerifier(strings.NewReader("junk"), nil); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadVerifier(strings.NewReader(`{"encoder":"x","classifier":"y"}`), nil); err == nil {
		t.Error("malformed inner payloads accepted")
	}
}

// misfitClassifier rewrites a saved classifier (ml.SaveClassifier's
// envelope) so that it no longer fits an encoder of the given width,
// while staying a file ml.LoadClassifier accepts: the forest's first
// root splits on a column one past the encoder's last, a weight vector
// loses or gains a cell, the DNN's input layer loses a unit.
func misfitClassifier(t *testing.T, saved []byte, width int) []byte {
	t.Helper()
	var env struct {
		Kind  string         `json:"kind"`
		Model map[string]any `json:"model"`
	}
	if err := json.Unmarshal(saved, &env); err != nil {
		t.Fatal(err)
	}
	switch env.Kind {
	case "rf":
		root := env.Model["trees"].([]any)[0].([]any)[0].(map[string]any)
		if root["f"].(float64) < 0 {
			t.Fatal("the first tree is a single leaf")
		}
		root["f"] = width
	case "lr":
		w := env.Model["weights"].([]any)
		env.Model["weights"] = w[:len(w)-1]
	case "svm":
		env.Model["weights"] = append(env.Model["weights"].([]any), 0.25)
	case "dnn":
		sizes := env.Model["sizes"].([]any)
		hidden := int(sizes[1].(float64))
		sizes[0] = width - 1
		first := env.Model["weights"].([]any)[0].([]any)
		env.Model["weights"].([]any)[0] = first[:hidden*(width-1)]
	default:
		t.Fatalf("unknown kind %q", env.Kind)
	}
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ml.LoadClassifier(bytes.NewReader(out)); err != nil {
		t.Fatalf("%s: the broken file must still load as a classifier: %v", env.Kind, err)
	}
	return out
}

// TestLoadRefusesClassifierThatMisfitsEncoder: a model file whose
// classifier and encoder disagree used to load and serve — a forest
// split on a column the encoder does not have sent every alarm right,
// a short weight vector dropped features. LoadVerifier and the registry
// load now refuse it, with ml.ErrBadModelFile, before it can serve.
func TestLoadRefusesClassifierThatMisfitsEncoder(t *testing.T) {
	_, alarms := testAlarms(600)
	for algo, cls := range equivClassifiers() {
		t.Run(string(algo), func(t *testing.T) {
			cfg := DefaultVerifierConfig()
			cfg.Classifier = cls
			v, err := Train(alarms, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := v.Save(&buf); err != nil {
				t.Fatal(err)
			}
			var st verifierState
			if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			good := st.Classifier
			broken := misfitClassifier(t, good, v.Stats().Features)

			load := func(st verifierState) error {
				file, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				_, err = LoadVerifier(bytes.NewReader(file), nil)
				return err
			}
			if err := load(st); err != nil {
				t.Fatalf("the untouched file: %v", err)
			}
			st.Classifier = broken
			if err := load(st); !errors.Is(err, ml.ErrBadModelFile) {
				t.Errorf("LoadVerifier, classifier misfits encoder: err = %v, want ErrBadModelFile", err)
			}
			st.Classifier, st.NumExtras = good, 0
			if err := load(st); !errors.Is(err, ml.ErrBadModelFile) {
				t.Errorf("LoadVerifier, encoder has columns the manifest does not: err = %v, want ErrBadModelFile", err)
			}

			reg, err := modelreg.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			m, err := SaveToRegistry(reg, v, modelreg.HoldoutMetrics{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadFromRegistry(reg, m.Version, nil); err != nil {
				t.Fatalf("the untouched registry version: %v", err)
			}
			path := filepath.Join(reg.Dir(), "v0001", "classifier.json")
			if err := os.WriteFile(path, broken, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadFromRegistry(reg, m.Version, nil); !errors.Is(err, ml.ErrBadModelFile) {
				t.Errorf("LoadFromRegistry, classifier misfits encoder: err = %v, want ErrBadModelFile", err)
			}
		})
	}
}
