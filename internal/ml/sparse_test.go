package ml

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// sparseSchema fits an encoder over three categorical columns with a
// numeric one between them when withNum is set (so the sparse dot
// product has to merge, not append), and returns it with its layout.
func sparseSchema(t testing.TB, withNum bool) (*SchemaEncoder, *RowLayout) {
	t.Helper()
	cols := []ColumnSpec{{Name: "zip"}}
	if withNum {
		cols = append(cols, ColumnSpec{Name: "risk", Numeric: true})
	}
	cols = append(cols, ColumnSpec{Name: "type"}, ColumnSpec{Name: "hour"})
	enc := NewSchemaEncoder(cols)
	var rows []Row
	for i := 0; i < 12; i++ {
		rows = append(rows, randomRow(rand.New(rand.NewSource(int64(i))), withNum, false))
	}
	if err := enc.Fit(rows); err != nil {
		t.Fatal(err)
	}
	l, err := enc.Layout()
	if err != nil {
		t.Fatal(err)
	}
	return enc, l
}

// randomRow draws a row of sparseSchema's shape; with unseen set, some
// of its categories are ones no encoder was fitted on.
func randomRow(rng *rand.Rand, withNum, unseen bool) Row {
	cat := func(prefix string, n int) string {
		if unseen && rng.Intn(4) == 0 {
			return prefix + "-new"
		}
		return fmt.Sprintf("%s%d", prefix, rng.Intn(n))
	}
	row := Row{Cats: []string{cat("z", 5), cat("t", 3), cat("h", 4)}}
	if withNum {
		row.Nums = []float64{[]float64{0, 0.25, 0.5, 1, rng.Float64()}[rng.Intn(5)]}
	}
	return row
}

// sparseOf encodes row the way serving does: one Column lookup per
// categorical value.
func sparseOf(l *RowLayout, rows *SparseRows, i int, row Row) {
	sr := rows.Row(i)
	for g, v := range row.Cats {
		sr.Active[g] = l.Column(g, v)
	}
	copy(sr.Nums, row.Nums)
}

// checkCompiled holds a compiled model to its classifier's Proba over
// rows, bit for bit, and the layout's Dense to the encoder's dense encoding.
func checkCompiled(t testing.TB, c Classifier, enc *SchemaEncoder, l *RowLayout, rows []Row) {
	t.Helper()
	sm, err := Compile(c, l)
	if err != nil {
		t.Fatalf("%s: compile: %v", c.Name(), err)
	}
	var sparse SparseRows
	sparse.Resize(l, len(rows))
	for i, row := range rows {
		sparseOf(l, &sparse, i, row)
	}
	got := make([][2]float64, len(rows))
	sm.ProbSparse(&sparse, got)
	dense := make([]float64, l.Width())
	for i, row := range rows {
		x, err := transform(enc, row)
		if err != nil {
			t.Fatal(err)
		}
		l.Dense(sparse.Row(i), dense)
		for j := range x {
			if math.Float64bits(x[j]) != math.Float64bits(dense[j]) {
				t.Fatalf("row %d %v: Dense[%d] = %v, dense encoding says %v", i, row, j, dense[j], x[j])
			}
		}
		want := c.Proba(x)
		if math.Float64bits(got[i][0]) != math.Float64bits(want[0]) ||
			math.Float64bits(got[i][1]) != math.Float64bits(want[1]) {
			t.Fatalf("%s: row %d %v: compiled %v, Proba %v", c.Name(), i, row, got[i], want)
		}
	}
}

// TestCompiledMatchesProba: all four classifiers, fitted, score sparse
// rows exactly as Proba scores the dense ones — with and without a
// numeric column in the middle of the schema, unseen categories included.
func TestCompiledMatchesProba(t *testing.T) {
	for _, withNum := range []bool{false, true} {
		enc, l := sparseSchema(t, withNum)
		rng := rand.New(rand.NewSource(7))
		var train []Row
		var labels []int
		for i := 0; i < 300; i++ {
			row := randomRow(rng, withNum, false)
			train = append(train, row)
			labels = append(labels, int(row.Cats[0][1]-'0')%2)
		}
		ds, err := enc.TransformAll(train, labels)
		if err != nil {
			t.Fatal(err)
		}
		var probe []Row
		for i := 0; i < 200; i++ {
			probe = append(probe, randomRow(rng, withNum, true))
		}
		for _, c := range classifiersUnderTest() {
			if _, err := Compile(c, l); !errors.Is(err, ErrNotFitted) {
				t.Fatalf("%s: compiling an unfitted model: %v, want ErrNotFitted", c.Name(), err)
			}
			if err := c.Fit(ds); err != nil {
				t.Fatal(err)
			}
			checkCompiled(t, c, enc, l, probe)
		}
	}
}

// TestCompileRefusesMisfit: a model trained on another width than the
// encoder's does not compile. Proba would have served it, reading past
// the mismatch.
func TestCompileRefusesMisfit(t *testing.T) {
	_, l := sparseSchema(t, true)
	for _, width := range []int{l.Width() - 1, l.Width() + 1} {
		x, y := make([][]float64, 80), make([]int, 80)
		for i := range x {
			x[i], y[i] = make([]float64, width), i%2
			x[i][width-1] = float64(y[i]) // the last column is the only signal: a forest splits on it
		}
		ds, err := NewDataset(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range classifiersUnderTest() {
			if err := c.Fit(ds); err != nil {
				t.Fatal(err)
			}
			_, err := Compile(c, l)
			if _, forest := c.(*RandomForest); forest && width < l.Width() {
				// A forest has no width of its own: one that splits only
				// on columns the encoder has fits it.
				if err != nil {
					t.Fatalf("rf on %d of %d columns: %v", width, l.Width(), err)
				}
				continue
			}
			if !errors.Is(err, ErrBadModelFile) {
				t.Fatalf("%s of width %d against an encoder of %d: err = %v, want ErrBadModelFile", c.Name(), width, l.Width(), err)
			}
		}
	}
}

// FuzzCompiledForest: whatever the trees look like — numeric splits,
// one-hot splits whose threshold lies below 0, inside [0, 1) or at or
// past 1 (or is NaN), so that the compiler drops the node — and
// whatever the rows hold, unseen categories included, with the numeric
// column in the schema and without, the compiled forest answers what
// Proba answers on the dense row, to the bit.
func FuzzCompiledForest(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, withNum bool) {
		enc, l := sparseSchema(t, withNum)
		rng := rand.New(rand.NewSource(seed))
		thresholds := []float64{-1, -0.0001, 0, 0.5, 0.9999, 1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)}
		var grow func(depth int) *treeNode
		grow = func(depth int) *treeNode {
			if depth == 0 || rng.Intn(5) == 0 {
				return &treeNode{feature: -1, prob: rng.Float64()}
			}
			n := &treeNode{feature: rng.Intn(l.Width()), threshold: thresholds[rng.Intn(len(thresholds))]}
			if rng.Intn(3) == 0 {
				n.threshold = rng.Float64()
			}
			n.left, n.right = grow(depth-1), grow(depth-1)
			return n
		}
		m := NewRandomForest(RandomForestConfig{})
		for i := rng.Intn(6); i >= 0; i-- {
			m.trees = append(m.trees, grow(1+rng.Intn(8)))
		}
		m.fitted = true
		var rows []Row
		for i := 0; i < 64; i++ {
			rows = append(rows, randomRow(rng, withNum, true))
		}
		checkCompiled(t, m, enc, l, rows)
	})
}

// mixedRows is a training set of serving rows beside its dense matrix:
// two categorical columns, a numeric one that is 0/1 throughout between
// them and a numeric one with other values (-0 among them) last.
func mixedRows(t testing.TB, n int) (*RowLayout, *SparseRows, *Dataset) {
	t.Helper()
	enc := NewSchemaEncoder([]ColumnSpec{{Name: "zip"}, {Name: "flag", Numeric: true}, {Name: "type"}, {Name: "score", Numeric: true}})
	rng := rand.New(rand.NewSource(3))
	rows, y := make([]Row, n), make([]int, n)
	for i := range rows {
		score := []float64{0, 1, 0.5, math.Copysign(0, -1), rng.NormFloat64()}[rng.Intn(5)]
		rows[i] = Row{
			Cats: []string{fmt.Sprintf("z%d", rng.Intn(9)), fmt.Sprintf("t%d", rng.Intn(3))},
			Nums: []float64{float64(rng.Intn(2)), score},
		}
		if rng.Float64() < 0.3+0.4*rows[i].Nums[0] {
			y[i] = 1
		}
	}
	if err := enc.Fit(rows); err != nil {
		t.Fatal(err)
	}
	l, err := enc.Layout()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := enc.TransformAll(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	var sr SparseRows
	sr.Resize(l, n)
	for i, row := range rows {
		sparseOf(l, &sr, i, row)
	}
	return l, &sr, ds
}

// TestRowsViewMatchesDenseView: the view FitRows builds from serving rows
// is the one Fit builds from their dense matrix — every column of the
// same kind (the 0/1 numeric column a bitset, the other numeric column
// numbers) and every row listing the same 1s, in whatever order.
func TestRowsViewMatchesDenseView(t *testing.T) {
	l, rows, ds := mixedRows(t, 300)
	want, err := newTrainView(ds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := newRowsView(l, rows, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*trainView{want, got} {
		for i := range v.y {
			slices.Sort(v.ones[v.start[i]:v.start[i+1]])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the rows' view differs from the dense matrix's")
	}
	flag, score := l.numCols[0], l.numCols[1]
	if got.bin[flag] == nil || got.num[score] == nil {
		t.Fatalf("flag numeric %v, score binary %v", got.bin[flag] == nil, got.num[score] == nil)
	}
}

// TestFitRowsMatchesFit: FitRows makes the model Fit makes on the rows'
// dense matrix — a forest from its view of the rows, any other classifier
// through the dense fallback.
func TestFitRowsMatchesFit(t *testing.T) {
	l, rows, ds := mixedRows(t, 500)
	for _, mk := range []func() Classifier{
		func() Classifier { return NewRandomForest(RandomForestConfig{NumTrees: 8, MaxDepth: 10, Seed: 4}) },
		func() Classifier { return NewLogisticRegression(DefaultLogisticRegressionConfig()) },
	} {
		dense, fromRows := mk(), mk()
		if err := dense.Fit(ds); err != nil {
			t.Fatal(err)
		}
		if err := FitRows(fromRows, l, rows, ds.Y); err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := SaveClassifier(&a, dense); err != nil {
			t.Fatal(err)
		}
		if err := SaveClassifier(&b, fromRows); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: FitRows saved a different model than Fit", dense.Name())
		}
	}
}

// TestFitRowsRejectsMalformedRows: rows that do not fit the layout or
// their labels are refused before anything is fitted.
func TestFitRowsRejectsMalformedRows(t *testing.T) {
	l, rows, ds := mixedRows(t, 20)
	_, other := sparseSchema(t, false)
	var empty SparseRows
	empty.Resize(l, 0)
	if err := FitRows(NewRandomForest(DefaultRandomForestConfig()), l, &empty, nil); !errors.Is(err, ErrEmptyDataset) {
		t.Errorf("no rows: err = %v, want ErrEmptyDataset", err)
	}
	bad := append([]int(nil), ds.Y...)
	bad[3] = 2
	var wide SparseRows
	wide.Resize(l, 1)
	copy(wide.active, []uint16{uint16(l.width), 0})
	for name, fit := range map[string]func() error{
		"short labels": func() error { return FitRows(NewRandomForest(DefaultRandomForestConfig()), l, rows, ds.Y[1:]) },
		"label 2":      func() error { return FitRows(NewRandomForest(DefaultRandomForestConfig()), l, rows, bad) },
		"other layout": func() error { return FitRows(NewRandomForest(DefaultRandomForestConfig()), other, rows, ds.Y) },
		"column past the width": func() error {
			return FitRows(NewLogisticRegression(DefaultLogisticRegressionConfig()), l, &wide, []int{1})
		},
	} {
		if err := fit(); !errors.Is(err, ErrShape) {
			t.Errorf("%s: err = %v, want ErrShape", name, err)
		}
	}
}
