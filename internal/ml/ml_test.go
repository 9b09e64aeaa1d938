package ml

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// linearDataset builds a noisy linearly-separable binary problem.
func linearDataset(n int, seed int64, noise float64) labelled {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x[i] = []float64{a, b, rng.Float64()} // third feature is noise
		label := 0
		if a+2*b > 0 {
			label = 1
		}
		if rng.Float64() < noise {
			label = 1 - label
		}
		y[i] = label
	}
	return numericSet(x, y)
}

// xorDataset builds the classic non-linear problem linear models
// cannot solve.
func xorDataset(n int, seed int64) labelled {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := float64(rng.Intn(2)), float64(rng.Intn(2))
		x[i] = []float64{a, b}
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		}
	}
	return numericSet(x, y)
}

// TestFoldsPartitionTheRows: every row validates exactly one fold and
// trains the others, and a fold's rows are gathered with their labels.
func TestFoldsPartitionTheRows(t *testing.T) {
	d := linearDataset(100, 1, 0)
	folds := foldsOf(d.rows, d.y, 5, rand.New(rand.NewSource(3)))
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	key := func(r SparseRow) [3]float64 { return [3]float64(r.Nums) }
	label := make(map[[3]float64]int)
	for i := range d.y {
		label[key(d.rows.Row(i))] = d.y[i]
	}
	validated := make(map[[3]float64]int)
	for _, f := range folds {
		if f.train.Len()+f.val.Len() != 100 || len(f.trainY) != f.train.Len() || len(f.valY) != f.val.Len() {
			t.Fatalf("fold partition broken: %d + %d rows, %d + %d labels", f.train.Len(), f.val.Len(), len(f.trainY), len(f.valY))
		}
		for i := range f.valY {
			k := key(f.val.Row(i))
			validated[k]++
			if label[k] != f.valY[i] {
				t.Fatalf("row %v carries label %d, want %d", k, f.valY[i], label[k])
			}
		}
	}
	if len(validated) != 100 {
		t.Errorf("validation folds cover %d rows", len(validated))
	}
	for k, n := range validated {
		if n != 1 {
			t.Errorf("row %v validates %d folds", k, n)
		}
	}
}

func TestStringIndexer(t *testing.T) {
	s := NewStringIndexer()
	for _, v := range []string{"fire", "intrusion", "fire", "water"} {
		s.Fit(v)
	}
	if len(s.values) != 3 {
		t.Fatalf("cardinality = %d", len(s.values))
	}
	if s.Index("fire") != 0 || s.Index("water") != 2 {
		t.Error("indices not in first-appearance order")
	}
	if s.Index("unknown") != 3 {
		t.Error("unseen value should map to reserved slot")
	}
	if s.OneHotWidth() != 4 {
		t.Errorf("one-hot width = %d, want 4 (3 + unseen)", s.OneHotWidth())
	}
}

func TestSchemaEncoder(t *testing.T) {
	e := NewSchemaEncoder([]ColumnSpec{
		{Name: "zip"},
		{Name: "type"},
		{Name: "risk", Numeric: true},
	})
	rows := []Row{
		{Cats: []string{"8000", "fire"}, Nums: []float64{0.5}},
		{Cats: []string{"8400", "intrusion"}, Nums: []float64{0.1}},
	}
	if err := e.Fit(rows); err != nil {
		t.Fatal(err)
	}
	// widths: zip 2+1, type 2+1, risk 1 = 7
	if e.Width() != 7 {
		t.Fatalf("width = %d, want 7", e.Width())
	}
	v, err := transform(e, rows[1])
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 0, 0, 1, 0, 0.1}
	if !slices.Equal(v, want) {
		t.Fatalf("transform = %v, want %v", v, want)
	}
	// Unseen category routes to the reserved slot, not an error.
	v, err = transform(e, Row{Cats: []string{"9999", "fire"}, Nums: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	if v[2] != 1 {
		t.Errorf("unseen zip not in reserved slot: %v", v)
	}
	// Shape errors.
	if _, err := transform(e, Row{Cats: []string{"only-one"}, Nums: []float64{0}}); !errors.Is(err, ErrShape) {
		t.Errorf("bad row shape: err = %v, want ErrShape", err)
	}
	l, err := e.Layout()
	if err != nil {
		t.Fatal(err)
	}
	var short SparseRows
	short.Resize(l, 1)
	if err := e.Transform(rows[0], SparseRow{Active: short.Row(0).Active[:1], Nums: short.Row(0).Nums}); !errors.Is(err, ErrShape) {
		t.Errorf("short destination: err = %v, want ErrShape", err)
	}
	// Unfitted encoder refuses.
	e2 := NewSchemaEncoder([]ColumnSpec{{Name: "a"}})
	if err := e2.Transform(Row{Cats: []string{"x"}}, SparseRow{Active: make([]uint16, 1)}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted transform: err = %v, want ErrNotFitted", err)
	}
}

// transform encodes one row with e and returns the one-hot vector it
// stands for.
func transform(e *SchemaEncoder, row Row) ([]float64, error) {
	l, err := e.Layout()
	if err != nil {
		return nil, err
	}
	var rows SparseRows
	rows.Resize(l, 1)
	if err := e.Transform(row, rows.Row(0)); err != nil {
		return nil, err
	}
	return dense(l, rows.Row(0)), nil
}

func classifiersUnderTest() []Classifier {
	lr := DefaultLogisticRegressionConfig()
	lr.MaxIterations = 300
	svm := DefaultSVMConfig()
	svm.MaxIterations = 500
	rf := DefaultRandomForestConfig()
	rf.NumTrees = 20
	rf.MaxDepth = 10
	dnn := DefaultDNNConfig()
	dnn.MaxEpochs = 60
	dnn.Patience = 5
	return []Classifier{
		NewLogisticRegression(lr),
		NewSVM(svm),
		NewRandomForest(rf),
		NewDNN(dnn),
	}
}

func TestAllClassifiersLearnLinearProblem(t *testing.T) {
	train := linearDataset(800, 10, 0.02)
	test := linearDataset(400, 11, 0.02)
	for _, c := range classifiersUnderTest() {
		if err := train.fit(c); err != nil {
			t.Fatalf("%s: fit: %v", c.Name(), err)
		}
		acc := test.accuracy(t, c)
		if acc < 0.9 {
			t.Errorf("%s: accuracy %.3f < 0.9 on separable data", c.Name(), acc)
		}
	}
}

func TestNonLinearModelsLearnXOR(t *testing.T) {
	train := xorDataset(600, 20)
	test := xorDataset(300, 21)
	rfCfg := DefaultRandomForestConfig()
	rfCfg.NumTrees = 20
	rfCfg.MaxDepth = 6
	rfCfg.FeatureFraction = 1.0
	dnnCfg := DefaultDNNConfig()
	dnnCfg.HiddenLayers = []int{8}
	dnnCfg.MaxEpochs = 300
	dnnCfg.Patience = 30
	for _, c := range []Classifier{NewRandomForest(rfCfg), NewDNN(dnnCfg)} {
		if err := train.fit(c); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if acc := test.accuracy(t, c); acc < 0.95 {
			t.Errorf("%s: XOR accuracy %.3f", c.Name(), acc)
		}
	}
	// Sanity: a linear model cannot beat ~0.75 on XOR.
	lr := NewLogisticRegression(DefaultLogisticRegressionConfig())
	if err := train.fit(lr); err != nil {
		t.Fatal(err)
	}
	if acc := test.accuracy(t, lr); acc > 0.8 {
		t.Errorf("linear model should fail XOR, got %.3f", acc)
	}
}

func TestFitRejectsEmptyDataset(t *testing.T) {
	d := linearDataset(10, 1, 0)
	var empty SparseRows
	empty.Resize(d.l, 0)
	for _, c := range classifiersUnderTest() {
		if err := c.Fit(d.l, nil, nil); !errors.Is(err, ErrEmptyDataset) {
			t.Errorf("%s: nil rows: err = %v, want ErrEmptyDataset", c.Name(), err)
		}
		if err := c.Fit(d.l, &empty, nil); !errors.Is(err, ErrEmptyDataset) {
			t.Errorf("%s: no rows: err = %v, want ErrEmptyDataset", c.Name(), err)
		}
	}
}

// TestUnfittedProbaIsNeutral: a model that is not fitted has no serving
// form — Compile and Evaluate refuse it — and the dense reference
// answers it with no preference.
func TestUnfittedProbaIsNeutral(t *testing.T) {
	d := linearDataset(10, 1, 0)
	for _, c := range classifiersUnderTest() {
		if _, err := Compile(c, d.l); !errors.Is(err, ErrNotFitted) {
			t.Errorf("%s: compile: err = %v, want ErrNotFitted", c.Name(), err)
		}
		if _, err := Evaluate(c, d.l, d.rows, d.y); !errors.Is(err, ErrNotFitted) {
			t.Errorf("%s: evaluate: err = %v, want ErrNotFitted", c.Name(), err)
		}
		if p := denseProba(c, []float64{1, 2, 3}); p != [2]float64{0.5, 0.5} {
			t.Errorf("%s: unfitted proba = %v", c.Name(), p)
		}
	}
}

// score returns the compiled c's probabilities on a row of d's layout
// holding x.
func score(t *testing.T, c Classifier, d labelled, x []float64) [2]float64 {
	t.Helper()
	sm, err := Compile(c, d.l)
	if err != nil {
		t.Fatal(err)
	}
	var rows SparseRows
	rows.Resize(d.l, 1)
	copy(rows.Row(0).Nums, x)
	var out [1][2]float64
	sm.ProbSparse(&rows, out[:])
	return out[0]
}

func TestProbabilitiesSumToOne(t *testing.T) {
	train := linearDataset(400, 30, 0.05)
	for _, c := range classifiersUnderTest() {
		if err := train.fit(c); err != nil {
			t.Fatal(err)
		}
		f := func(a, b, n float64) bool {
			p := score(t, c, train, []float64{math.Mod(a, 3), math.Mod(b, 3), math.Mod(n, 1)})
			return p[0] >= 0 && p[1] >= 0 && math.Abs(p[0]+p[1]-1) < 1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	train := linearDataset(300, 40, 0.05)
	probe := []float64{0.3, -0.2, 0.5}
	for build := 0; build < 2; build++ {
		a := NewRandomForest(DefaultRandomForestConfig())
		a.Config.NumTrees = 10
		a.Config.MaxDepth = 8
		b := NewRandomForest(a.Config)
		if err := train.fit(a); err != nil {
			t.Fatal(err)
		}
		if err := train.fit(b); err != nil {
			t.Fatal(err)
		}
		if pa, pb := score(t, a, train, probe), score(t, b, train, probe); pa != pb {
			t.Errorf("same seed, different forests: %v vs %v", pa, pb)
		}
	}
	d1 := NewDNN(DefaultDNNConfig())
	d1.Config.MaxEpochs = 10
	d2 := NewDNN(d1.Config)
	if err := train.fit(d1); err != nil {
		t.Fatal(err)
	}
	if err := train.fit(d2); err != nil {
		t.Fatal(err)
	}
	if score(t, d1, train, probe) != score(t, d2, train, probe) {
		t.Error("same seed, different DNNs")
	}
}

func TestDNNArchitectureMatchesTable7(t *testing.T) {
	cfg := DefaultDNNConfig()
	cfg.MaxEpochs = 1
	m := NewDNN(cfg)
	// 803-wide input like the Sitasys one-hot encoding (§5.3.3).
	x := make([][]float64, 4)
	y := []int{0, 1, 0, 1}
	for i := range x {
		x[i] = make([]float64, 803)
		x[i][i] = 1
	}
	if err := numericSet(x, y).fit(m); err != nil {
		t.Fatal(err)
	}
	want := []int{803, 50, 2, 2}
	got := m.sizes
	if len(got) != len(want) {
		t.Fatalf("layers = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("layers = %v, want %v", got, want)
		}
	}
}

func TestRandomForestRespectsDepthLimit(t *testing.T) {
	cfg := DefaultRandomForestConfig()
	cfg.NumTrees = 5
	cfg.MaxDepth = 3
	m := NewRandomForest(cfg)
	if err := linearDataset(500, 50, 0.1).fit(m); err != nil {
		t.Fatal(err)
	}
	depth := 0
	for _, tree := range m.trees {
		depth = max(depth, nodeDepth(tree))
	}
	if depth > 3 {
		t.Errorf("tree depth %d exceeds limit 3", depth)
	}
	if len(m.trees) != 5 {
		t.Errorf("trees = %d", len(m.trees))
	}
}

func TestLogisticRegressionConvergesEarly(t *testing.T) {
	cfg := DefaultLogisticRegressionConfig()
	cfg.Tolerance = 1e-3
	m := NewLogisticRegression(cfg)
	if err := linearDataset(200, 60, 0).fit(m); err != nil {
		t.Fatal(err)
	}
	if m.Iterations >= cfg.MaxIterations {
		t.Errorf("tolerance stop did not trigger: ran %d iterations", m.Iterations)
	}
}

func TestConfusionMatrixMetrics(t *testing.T) {
	cm := ConfusionMatrix{TP: 40, FP: 10, TN: 35, FN: 15}
	if got := cm.Accuracy(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("accuracy = %f", got)
	}
	if got := cm.Precision(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("precision = %f", got)
	}
	if got := cm.Recall(); math.Abs(got-40.0/55.0) > 1e-12 {
		t.Errorf("recall = %f", got)
	}
	if cm.F1() <= 0 || cm.F1() > 1 {
		t.Errorf("f1 = %f", cm.F1())
	}
	var zero ConfusionMatrix
	if zero.Accuracy() != 0 || zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 {
		t.Error("zero matrix should yield zero metrics")
	}
}

func TestGridSearchPrefersBetterConfig(t *testing.T) {
	d := linearDataset(400, 70, 0.05)
	grid := map[string][]float64{
		"trees": {1, 15},
		"depth": {1, 8},
	}
	results, err := GridSearch(d.l, d.rows, d.y, grid, 3, func(p GridPoint) Classifier {
		cfg := DefaultRandomForestConfig()
		cfg.NumTrees = int(p["trees"])
		cfg.MaxDepth = int(p["depth"])
		return NewRandomForest(cfg)
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	best := results[0]
	if best.Point["trees"] == 1 && best.Point["depth"] == 1 {
		t.Errorf("grid search chose the weakest config: %+v", results)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Score > results[i-1].Score {
			t.Error("results not sorted")
		}
	}
}

func TestGridSearchErrors(t *testing.T) {
	if _, err := GridSearch(nil, nil, nil, nil, 2, nil, 1); err == nil {
		t.Error("nil dataset accepted")
	}
	d := linearDataset(20, 1, 0)
	if _, err := GridSearch(d.l, d.rows, d.y[1:], map[string][]float64{"trees": {1}}, 2, nil, 1); !errors.Is(err, ErrShape) {
		t.Errorf("short labels: err = %v, want ErrShape", err)
	}
	if _, err := GridSearch(d.l, d.rows, d.y, map[string][]float64{}, 2,
		func(GridPoint) Classifier { return NewLogisticRegression(DefaultLogisticRegressionConfig()) }, 1); err != nil {
		// Empty grid means a single default point — accept either
		// behaviour, but it must not panic. Our implementation treats
		// it as one empty point.
		t.Logf("empty grid: %v", err)
	}
}
