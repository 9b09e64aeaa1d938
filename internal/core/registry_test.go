package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"alarmverify/internal/alarm"
	"alarmverify/internal/ml"
	"alarmverify/internal/modelreg"
	"alarmverify/internal/risk"
	"alarmverify/internal/textproc"
)

// registryRoundTrip saves v as a registry's first version and loads it
// back with riskModel.
func registryRoundTrip(t *testing.T, dir string, v *Verifier, riskModel *risk.Model) (*modelreg.Registry, *Verifier, error) {
	t.Helper()
	reg, err := modelreg.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SaveToRegistry(reg, v, modelreg.HoldoutMetrics{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFromRegistry(reg, m.Version, riskModel)
	return reg, loaded, err
}

// sameVerdict reports whether two verdicts agree bit for bit.
func sameVerdict(a, b alarm.Verification) bool {
	return a.Predicted == b.Predicted && math.Float64bits(a.Probability) == math.Float64bits(b.Probability)
}

func TestVerifierSaveLoadRoundTrip(t *testing.T) {
	_, alarms := testAlarms(3000)
	v := fastVerifier(t, alarms[:2000])

	_, loaded, err := registryRoundTrip(t, t.TempDir(), v, nil)
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
		if !sameVerdict(a, b) {
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
	// Without a risk model the load must refuse.
	reg, _, err := registryRoundTrip(t, t.TempDir(), v, nil)
	if err == nil {
		t.Error("risk-trained verifier loaded without a risk model")
	}
	loaded, err := LoadFromRegistry(reg, 0, model)
	if err != nil {
		t.Fatal(err)
	}
	for i := range alarms[:100] {
		a, _ := v.Verify(&alarms[i])
		b, err := loaded.Verify(&alarms[i])
		if err != nil {
			t.Fatal(err)
		}
		if !sameVerdict(a, b) {
			t.Fatalf("risk verifier changed after reload: %+v vs %+v", a, b)
		}
	}
}

// TestLoadFromRegistryRejectsGarbage: a version whose classifier or
// encoder file is not one is refused.
func TestLoadFromRegistryRejectsGarbage(t *testing.T) {
	_, alarms := testAlarms(600)
	v := fastVerifier(t, alarms)
	for _, file := range []string{"classifier.json", "encoder.json"} {
		dir := t.TempDir()
		reg, _, err := registryRoundTrip(t, dir, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "v0001", file), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFromRegistry(reg, 1, nil); err == nil {
			t.Errorf("garbage %s accepted", file)
		}
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

// TestLoadRefusesClassifierThatMisfitsEncoder: a model whose classifier
// and encoder disagree used to load and serve — a forest split on a
// column the encoder does not have sent every alarm right, a short
// weight vector dropped features. The registry load now refuses it, with
// ml.ErrBadModelFile, before it can serve; so it does a manifest that
// names fewer columns than its encoder has.
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
			root := t.TempDir()
			reg, _, err := registryRoundTrip(t, root, v, nil)
			if err != nil {
				t.Fatalf("the untouched registry version: %v", err)
			}
			dir := filepath.Join(root, "v0001")
			rewrite := func(name string, edit func([]byte) []byte) (restore func()) {
				path := filepath.Join(dir, name)
				good, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, edit(good), 0o644); err != nil {
					t.Fatal(err)
				}
				return func() {
					if err := os.WriteFile(path, good, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}

			restore := rewrite("classifier.json", func(good []byte) []byte {
				return misfitClassifier(t, good, v.Stats().Features)
			})
			if _, err := LoadFromRegistry(reg, 1, nil); !errors.Is(err, ml.ErrBadModelFile) {
				t.Errorf("classifier misfits encoder: err = %v, want ErrBadModelFile", err)
			}
			restore()

			rewrite("manifest.json", func(good []byte) []byte {
				var m map[string]any
				if err := json.Unmarshal(good, &m); err != nil {
					t.Fatal(err)
				}
				m["numExtras"] = 0
				out, err := json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				return out
			})
			if _, err := LoadFromRegistry(reg, 1, nil); !errors.Is(err, ml.ErrBadModelFile) {
				t.Errorf("encoder has columns the manifest does not: err = %v, want ErrBadModelFile", err)
			}
		})
	}
}
