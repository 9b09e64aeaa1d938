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
func linearDataset(n int, seed int64, noise float64) *Dataset {
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
	d, _ := NewDataset(x, y, []string{"a", "b", "noise"})
	return d
}

// xorDataset builds the classic non-linear problem linear models
// cannot solve.
func xorDataset(n int, seed int64) *Dataset {
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
	d, _ := NewDataset(x, y, nil)
	return d
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil, nil, nil); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := NewDataset([][]float64{{1}}, []int{1, 0}, nil); err == nil {
		t.Error("row/label mismatch accepted")
	}
	if _, err := NewDataset([][]float64{{1, 2}, {1}}, []int{0, 1}, nil); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := NewDataset([][]float64{{1}}, []int{2}, nil); err == nil {
		t.Error("non-binary label accepted")
	}
	if _, err := NewDataset([][]float64{{1, 2}}, []int{1}, []string{"only-one"}); err == nil {
		t.Error("name/width mismatch accepted")
	}
}

func TestSplitAndFolds(t *testing.T) {
	d := linearDataset(100, 1, 0)
	train, test := d.Split(0.5, rand.New(rand.NewSource(2)))
	if train.Len() != 50 || test.Len() != 50 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	folds := d.Folds(5, rand.New(rand.NewSource(3)))
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	total := 0
	for _, f := range folds {
		total += f.Val.Len()
		if f.Train.Len()+f.Val.Len() != 100 {
			t.Errorf("fold partition broken: %d + %d", f.Train.Len(), f.Val.Len())
		}
	}
	if total != 100 {
		t.Errorf("validation folds cover %d rows", total)
	}
}

func TestStringIndexer(t *testing.T) {
	s := NewStringIndexer()
	for _, v := range []string{"fire", "intrusion", "fire", "water"} {
		s.Fit(v)
	}
	if s.Cardinality() != 3 {
		t.Fatalf("cardinality = %d", s.Cardinality())
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
	names := e.FeatureNames()
	if len(names) != 7 || names[0] != "zip=8000" || names[6] != "risk" {
		t.Errorf("names = %v", names)
	}
	v, err := transform(e, rows[1])
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 0, 0, 1, 0, 0.1}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("transform = %v, want %v", v, want)
		}
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
	if _, err := transform(e, Row{Cats: []string{"only-one"}, Nums: []float64{0}}); err == nil {
		t.Error("bad row shape accepted")
	}
	// Unfitted encoder refuses.
	e2 := NewSchemaEncoder([]ColumnSpec{{Name: "a"}})
	if _, err := transform(e2, Row{Cats: []string{"x"}}); err == nil {
		t.Error("unfitted transform accepted")
	}
}

// TestTransformAllOneSlab: TransformAll's rows are what transform gives,
// laid end to end in one array, and each is capped at the width so an
// append to one cannot run into the next.
// transform encodes one row into a fresh vector, as TransformAll does
// each of its rows.
func transform(e *SchemaEncoder, row Row) ([]float64, error) {
	if !e.fitted {
		return nil, ErrNotFitted
	}
	dst := make([]float64, e.Width())
	return dst, e.encode(dst, row)
}

func TestTransformAllOneSlab(t *testing.T) {
	e := NewSchemaEncoder([]ColumnSpec{{Name: "zip"}, {Name: "risk", Numeric: true}})
	rows := []Row{
		{Cats: []string{"8000"}, Nums: []float64{0.5}},
		{Cats: []string{"8400"}, Nums: []float64{0.1}},
		{Cats: []string{"8000"}, Nums: []float64{2}},
	}
	if err := e.Fit(rows); err != nil {
		t.Fatal(err)
	}
	d, err := e.TransformAll(rows, []int{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	w := e.Width()
	for i, row := range rows {
		want, err := transform(e, row)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.X[i]; len(got) != w || cap(got) != w || !slices.Equal(got, want) {
			t.Fatalf("row %d = %v (cap %d), want %v (cap %d)", i, got, cap(got), want, w)
		}
	}
	_ = append(d.X[0], 9)
	if d.X[1][0] != 0 {
		t.Fatal("an append to row 0 wrote into row 1")
	}
	var many []Row
	for range 50 {
		many = append(many, rows...)
	}
	labels := make([]int, len(many))
	allocs := func(rows []Row) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := e.TransformAll(rows, labels[:len(rows)]); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, lots := allocs(rows), allocs(many); lots != few {
		t.Errorf("%v allocations for %d rows, %v for %d: want the same", lots, len(many), few, len(rows))
	}
	if _, err := e.TransformAll(rows[:1], []int{1, 0}); !errors.Is(err, ErrShape) {
		t.Errorf("row/label mismatch: err = %v, want ErrShape", err)
	}
	if _, err := NewSchemaEncoder(nil).TransformAll(rows, []int{1, 0, 1}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted: err = %v, want ErrNotFitted", err)
	}
	if _, err := e.TransformAll([]Row{{Cats: []string{"8000"}}}, []int{1}); !errors.Is(err, ErrShape) {
		t.Errorf("bad row shape: err = %v, want ErrShape", err)
	}
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
		if err := c.Fit(train); err != nil {
			t.Fatalf("%s: fit: %v", c.Name(), err)
		}
		acc := Accuracy(c, test)
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
		if err := c.Fit(train); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if acc := Accuracy(c, test); acc < 0.95 {
			t.Errorf("%s: XOR accuracy %.3f", c.Name(), acc)
		}
	}
	// Sanity: a linear model cannot beat ~0.75 on XOR.
	lr := NewLogisticRegression(DefaultLogisticRegressionConfig())
	lr.Fit(train)
	if acc := Accuracy(lr, test); acc > 0.8 {
		t.Errorf("linear model should fail XOR, got %.3f", acc)
	}
}

func TestFitRejectsEmptyDataset(t *testing.T) {
	for _, c := range classifiersUnderTest() {
		if err := c.Fit(nil); err == nil {
			t.Errorf("%s: nil dataset accepted", c.Name())
		}
	}
}

func TestUnfittedProbaIsNeutral(t *testing.T) {
	for _, c := range classifiersUnderTest() {
		p := c.Proba([]float64{1, 2, 3})
		if p[0] != 0.5 || p[1] != 0.5 {
			t.Errorf("%s: unfitted proba = %v", c.Name(), p)
		}
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	train := linearDataset(400, 30, 0.05)
	for _, c := range classifiersUnderTest() {
		if err := c.Fit(train); err != nil {
			t.Fatal(err)
		}
		c := c
		f := func(a, b, n float64) bool {
			p := c.Proba([]float64{math.Mod(a, 3), math.Mod(b, 3), math.Mod(n, 1)})
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
		a.Fit(train)
		b.Fit(train)
		pa, pb := a.Proba(probe), b.Proba(probe)
		if pa != pb {
			t.Errorf("same seed, different forests: %v vs %v", pa, pb)
		}
	}
	d1 := NewDNN(DefaultDNNConfig())
	d1.Config.MaxEpochs = 10
	d2 := NewDNN(d1.Config)
	d1.Fit(train)
	d2.Fit(train)
	if d1.Proba(probe) != d2.Proba(probe) {
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
	d, _ := NewDataset(x, y, nil)
	if err := m.Fit(d); err != nil {
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
	if err := m.Fit(linearDataset(500, 50, 0.1)); err != nil {
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
	if err := m.Fit(linearDataset(200, 60, 0)); err != nil {
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
	results, err := GridSearch(d, grid, 3, func(p GridPoint) Classifier {
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
	if _, err := GridSearch(nil, nil, 2, nil, 1); err == nil {
		t.Error("nil dataset accepted")
	}
	d := linearDataset(20, 1, 0)
	if _, err := GridSearch(d, map[string][]float64{}, 2,
		func(GridPoint) Classifier { return NewLogisticRegression(DefaultLogisticRegressionConfig()) }, 1); err != nil {
		// Empty grid means a single default point — accept either
		// behaviour, but it must not panic. Our implementation treats
		// it as one empty point.
		t.Logf("empty grid: %v", err)
	}
}
