package ml

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestSaveLoadRoundTripAllClassifiers(t *testing.T) {
	train := linearDataset(500, 77, 0.05)
	probes := [][]float64{
		{0.5, 0.5, 0.1}, {-0.8, 0.3, 0.9}, {0.1, -0.9, 0.4},
	}
	for _, c := range classifiersUnderTest() {
		if err := c.Fit(train); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		var buf bytes.Buffer
		if err := SaveClassifier(&buf, c); err != nil {
			t.Fatalf("%s: save: %v", c.Name(), err)
		}
		loaded, err := LoadClassifier(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", c.Name(), err)
		}
		if loaded.Name() != c.Name() {
			t.Errorf("kind changed: %s -> %s", c.Name(), loaded.Name())
		}
		for _, x := range probes {
			if got, want := loaded.Proba(x), c.Proba(x); got != want {
				t.Errorf("%s: proba changed after reload: %v vs %v", c.Name(), got, want)
			}
		}
	}
}

func TestSaveRejectsUnfitted(t *testing.T) {
	for _, c := range classifiersUnderTest() {
		var buf bytes.Buffer
		if err := SaveClassifier(&buf, c); err == nil {
			t.Errorf("%s: unfitted model saved", c.Name())
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not json",
		`{"kind":"warp-drive","model":{}}`,
		`{"kind":"rf","model":{"trees":[[{"f":0,"t":1,"l":99,"r":99,"p":0.5}]]}}`,
		`{"kind":"dnn","model":{"sizes":[3,2],"weights":[[1,2,3]],"biases":[[0,0]]}}`,
		// Shapes that agree with each other and would still panic Proba:
		// one output unit, a negative width.
		`{"kind":"dnn","model":{"sizes":[3,1],"weights":[[1,2,3]],"biases":[[0]]}}`,
		`{"kind":"dnn","model":{"sizes":[-3,0,2],"weights":[[],[]],"biases":[[],[0,0]]}}`,
	}
	for _, s := range cases {
		if _, err := LoadClassifier(strings.NewReader(s)); err == nil {
			t.Errorf("garbage accepted: %q", s)
		}
	}
}

// TestLoadRejectsChildIndexCycle: child indices used to be checked for
// range only, so a node that names itself (or any earlier node) as its
// child loaded, and Proba on the result never returned — one bad model
// file hung the shard that served it.
func TestLoadRejectsChildIndexCycle(t *testing.T) {
	cases := []string{
		`[{"f":0,"t":0.5,"l":0,"r":0}]`,
		`[{"f":0,"t":0.5,"l":1,"r":2},{"f":1,"t":0.5,"l":0,"r":2},{"f":-1,"l":-1,"r":-1,"p":0.5}]`,
		`[{"f":0,"t":0.5,"l":1,"r":2},{"f":-1,"l":-1,"r":-1,"p":0.1},{"f":1,"t":0.5,"l":1,"r":2}]`,
	}
	for _, tree := range cases {
		file := `{"kind":"rf","model":{"trees":[` + tree + `]}}`
		done := make(chan error, 1)
		go func() {
			m, err := LoadClassifier(strings.NewReader(file))
			if err == nil {
				m.Proba([]float64{0, 0})
			}
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrBadModelFile) {
				t.Errorf("%s: err = %v, want ErrBadModelFile", tree, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: loaded, and Proba never returned", tree)
		}
	}
}

// TestLoadAcceptsRetiredConfigKey: forests saved before PR 20 carry
// "Parallel" in their config; the field is gone and the files still load.
func TestLoadAcceptsRetiredConfigKey(t *testing.T) {
	file := `{"kind":"rf","model":{"config":{"NumTrees":1,"MaxDepth":30,"MinLeaf":1,"FeatureFraction":0,"MaxThresholds":16,"Seed":1,"Parallel":true},` +
		`"trees":[[{"f":0,"t":0.5,"l":1,"r":2,"p":0},{"f":-1,"t":0,"l":-1,"r":-1,"p":0.25},{"f":-1,"t":0,"l":-1,"r":-1,"p":0.75}]]}}`
	m, err := LoadClassifier(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Proba([]float64{1}); got != [2]float64{0.25, 0.75} {
		t.Errorf("Proba = %v, want [0.25 0.75]", got)
	}
}

// FuzzLoadClassifier: a model file is input from outside the process.
// Loading one must never panic, and whatever loads must answer — a
// model that loops or sizes a buffer from a hostile number takes its
// shard with it.
func FuzzLoadClassifier(f *testing.F) {
	// Small models: the fuzzer mutates and minimizes these files.
	train := linearDataset(60, 5, 0.05)
	for _, c := range []Classifier{
		NewLogisticRegression(LogisticRegressionConfig{MaxIterations: 5, LearningRate: 0.1}),
		NewSVM(SVMConfig{MaxIterations: 5, StepSize: 1, MiniBatchFraction: 0.5}),
		NewRandomForest(RandomForestConfig{NumTrees: 2, MaxDepth: 2}),
		NewDNN(DNNConfig{HiddenLayers: []int{3}, MaxEpochs: 2, MiniBatch: 20, LearningRate: 0.1}),
	} {
		if err := c.Fit(train); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveClassifier(&buf, c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"kind":"rf","model":{"trees":[[{"f":0,"t":0.5,"l":0,"r":0}]]}}`))
	f.Add([]byte(`{"kind":"dnn","model":{"sizes":[4611686018427387904,4,2],"weights":[[],[1,2,3,4,5,6,7,8]],"biases":[[0,0,0,0],[0,0]]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadClassifier(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadModelFile) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		// A walk that does not end trips the fuzz worker's own deadline.
		zero := make([]float64, 8)
		m.Proba(zero)
	})
}

func TestEncoderSaveLoad(t *testing.T) {
	e := NewSchemaEncoder([]ColumnSpec{
		{Name: "zip"}, {Name: "type"}, {Name: "risk", Numeric: true},
	})
	rows := []Row{
		{Cats: []string{"8000", "fire"}, Nums: []float64{0.5}},
		{Cats: []string{"8400", "intrusion"}, Nums: []float64{0.1}},
	}
	if err := e.Fit(rows); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Width() != e.Width() {
		t.Fatalf("width changed: %d -> %d", e.Width(), loaded.Width())
	}
	for _, row := range rows {
		a, err1 := transform(e, row)
		b, err2 := transform(loaded, row)
		if err1 != nil || err2 != nil {
			t.Fatalf("transform: %v %v", err1, err2)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("transform changed after reload: %v vs %v", a, b)
			}
		}
	}
	// Vocabulary order must be preserved exactly.
	an := e.FeatureNames()
	bn := loaded.FeatureNames()
	for i := range an {
		if an[i] != bn[i] {
			t.Fatalf("feature names reordered: %v vs %v", an, bn)
		}
	}
	if _, err := LoadEncoder(strings.NewReader("junk")); err == nil {
		t.Error("garbage encoder accepted")
	}
}
