package ml_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"alarmverify/internal/dataset"
	"alarmverify/internal/ml"
)

// The hashes below were recorded at the commit before the forest
// started training from a feature-major view (PR 20). Training is
// deterministic for a seed, so a change to how Fit reads the data must
// leave every one of them alone; a change to what Fit computes — the
// RNG draw order, the gain expression, the order candidates are
// compared in — moves them, and then every served verdict moved too.

// treesHash is the SHA-256 of the saved model's "trees" array: the
// trees and nothing else, so the config struct may change.
func treesHash(t testing.TB, m ml.Classifier) string {
	t.Helper()
	var buf bytes.Buffer
	if err := ml.SaveClassifier(&buf, m); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Model struct {
			Trees json.RawMessage `json:"trees"`
		} `json:"model"`
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Model.Trees) == 0 {
		t.Fatal("saved model has no trees array")
	}
	sum := sha256.Sum256(env.Model.Trees)
	return hex.EncodeToString(sum[:])
}

// rowSet is a labelled set of serving rows.
type rowSet struct {
	l    *ml.RowLayout
	rows *ml.SparseRows
	y    []int
}

// fit fits c on s.
func (s rowSet) fit(c ml.Classifier) error { return c.Fit(s.l, s.rows, s.y) }

// sitasysDataset encodes the first train alarms of a generated Sitasys
// set the way the experiments do.
func sitasysDataset(t testing.TB, seed int64, alarms, devices, train int) rowSet {
	t.Helper()
	cfg := dataset.DefaultSitasysConfig()
	cfg.NumAlarms, cfg.NumDevices, cfg.Seed = alarms, devices, seed
	all := dataset.GenerateSitasys(dataset.NewWorld(seed), cfg)
	l, rows, y, err := dataset.Encode(dataset.ToLabeled(all[:train], time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	return rowSet{l, rows, y}
}

// TestForestGoldenSitasys pins the forest the bench harness trains at
// its smoke scale (6 000 alarms / 300 devices / first 3 000 / 10 trees
// / depth 12).
func TestForestGoldenSitasys(t *testing.T) {
	want := map[int64]string{
		1: "67b669de93407a29e9e9ec78972829444ffb525235851c727f96087790ba5eff",
		2: "362082f98a4b1e55dca20d320a51493958e9aca12d90f70312ac3b4bfc28d7ff",
	}
	for seed, hash := range want {
		cfg := ml.DefaultRandomForestConfig()
		cfg.NumTrees, cfg.MaxDepth, cfg.Seed = 10, 12, seed
		m := ml.NewRandomForest(cfg)
		if err := sitasysDataset(t, seed, 6000, 300, 3000).fit(m); err != nil {
			t.Fatal(err)
		}
		if got := treesHash(t, m); got != hash {
			t.Errorf("seed %d: trees hash %s, want %s", seed, got, hash)
		}
	}
}

// TestForestGoldenFullScale pins the forest the bench harness trains at
// its full scale (48 000 alarms / 1 200 devices / first 12 000 / 50 trees
// / depth 30), the fit ml.train_s times. Its hash was recorded while
// every node still counted its own rows.
func TestForestGoldenFullScale(t *testing.T) {
	const want = "e3f10a5450c8fa1b6a052985daea918be6c670b0b244e59c7b41bcf02373b0bc"
	m := ml.NewRandomForest(ml.DefaultRandomForestConfig())
	if err := sitasysDataset(t, 1, 48000, 1200, 12000).fit(m); err != nil {
		t.Fatal(err)
	}
	if got := treesHash(t, m); got != want {
		t.Errorf("trees hash %s, want %s", got, want)
	}
}

// TestLinearAndDNNGolden pins the other three models, each cut short to
// run fast, on the forest's smoke-scale Sitasys set and on the mixed set
// below (whose numeric cells are neither 0 nor 1): the SHA-256 of the
// whole saved model — weights, bias, calibration and config. The hashes
// were recorded while LR, SVM and the DNN still fit on a dense design
// matrix, so a change to how they read their rows must leave them alone.
func TestLinearAndDNNGolden(t *testing.T) {
	lr := ml.DefaultLogisticRegressionConfig()
	lr.MaxIterations = 40
	svm := ml.DefaultSVMConfig()
	svm.MaxIterations = 150
	dnn := ml.DefaultDNNConfig()
	dnn.MaxEpochs = 3
	models := []func() ml.Classifier{
		func() ml.Classifier { return ml.NewLogisticRegression(lr) },
		func() ml.Classifier { return ml.NewSVM(svm) },
		func() ml.Classifier { return ml.NewDNN(dnn) },
	}
	sets := []struct {
		name string
		d    rowSet
		want []string // one per model
	}{
		{"sitasys", sitasysDataset(t, 1, 6000, 300, 3000), []string{
			"6d40f2bf11a482143a11ff1cfc942933642919fe132a6aa8fa484f5657288451",
			"fddd49ee851e0053fb8d94dfae9b5eb20c6f7f97d9b0014e2394dbfe8482a4fd",
			"44edc502c584c6cbcfc09df975fbc0ca99465645af29f20d77a2d35009ce4dfb",
		}},
		{"mixed", mixedDataset(t, 4000, 7), []string{
			"bd30b8c802eedc7bde8c788fda4123286a2b48ee317a456136b0f1a012976543",
			"c1e0bf4107f67f2c58eb2d8bf49882a1b8ca094af0d3d0c46e0b7e13e1d30480",
			"657d047db00ad37eef938c7166d554323f28dc8d07caeede1f6c7078e18763cf",
		}},
	}
	for _, set := range sets {
		for i, mk := range models {
			c := mk()
			if err := set.d.fit(c); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ml.SaveClassifier(&buf, c); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != set.want[i] {
				t.Errorf("%s %s: model hash %s, want %s", set.name, c.Name(), got, set.want[i])
			}
		}
	}
}

// mixedDataset is one-hot blocks beside two numeric columns: one
// continuous, and one taking the values {0, 1, 2} so that a node deep in
// a tree can hold only its 0s and 1s and see a numeric column as binary.
// Its rows are of a numeric-only schema, a cell per column.
func mixedDataset(t testing.TB, rows int, seed int64) rowSet {
	rng := rand.New(rand.NewSource(seed))
	blocks := []int{6, 20, 50}
	width := 2
	for _, b := range blocks {
		width += b
	}
	x := make([][]float64, rows)
	y := make([]int, rows)
	for i := range x {
		row := make([]float64, width)
		score := 0.0
		off := 0
		for bi, b := range blocks {
			v := rng.Intn(b)
			row[off+v] = 1
			if v%(bi+2) == 0 {
				score += 0.8
			}
			off += b
		}
		cont := rng.NormFloat64()
		tern := float64(rng.Intn(3))
		row[off], row[off+1] = cont, tern
		score += 0.9*cont + 0.7*(tern-1) + 0.5*rng.NormFloat64()
		if score > 1.2 {
			y[i] = 1
		}
		x[i] = row
	}
	cols := make([]ml.ColumnSpec, width)
	for i := range cols {
		cols[i] = ml.ColumnSpec{Name: "x", Numeric: true}
	}
	enc := ml.NewSchemaEncoder(cols)
	if err := enc.Fit(nil); err != nil {
		t.Fatal(err)
	}
	l, err := enc.Layout()
	if err != nil {
		t.Fatal(err)
	}
	sr := new(ml.SparseRows)
	sr.Resize(l, rows)
	for i := range x {
		if err := enc.Transform(ml.Row{Nums: x[i]}, sr.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return rowSet{l, sr, y}
}

// TestForestGoldenMixed pins forests grown over numeric and one-hot
// columns together: the root holds far more than 256 rows, so the
// numeric threshold sample draws from the RNG, and both the
// every-midpoint and the strided threshold lists are reached.
func TestForestGoldenMixed(t *testing.T) {
	d := mixedDataset(t, 4000, 7)
	cases := []struct {
		name string
		cfg  ml.RandomForestConfig
		want string
	}{
		{"default-floor", ml.RandomForestConfig{NumTrees: 8, MaxDepth: 16, MinLeaf: 1, MaxThresholds: 16, Seed: 3},
			"21d17544ac9a4ec6a784ec4f440712c65c8f90f859ff88e40ef050068ae4eeba"},
		{"minleaf-fraction", ml.RandomForestConfig{NumTrees: 5, MaxDepth: 20, MinLeaf: 3, FeatureFraction: 0.3, MaxThresholds: 4, Seed: 11},
			"12aa8bbb38af5270b9cc4e8bdd9b27df82e0aa8f10f5dd7c0920bd256ec65004"},
	}
	for _, c := range cases {
		m := ml.NewRandomForest(c.cfg)
		if err := d.fit(m); err != nil {
			t.Fatal(err)
		}
		if got := treesHash(t, m); got != c.want {
			t.Errorf("%s: trees hash %s, want %s", c.name, got, c.want)
		}
	}
}

// BenchmarkForestFit trains the forest the bench harness trains at its
// full scale: 12 000 alarms × 1 001 one-hot features, 50 trees, depth
// 30 — the layer the harness reports as ml.train_s.
func BenchmarkForestFit(b *testing.B) {
	d := sitasysDataset(b, 1, 48000, 1200, 12000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.fit(ml.NewRandomForest(ml.DefaultRandomForestConfig())); err != nil {
			b.Fatal(err)
		}
	}
}
