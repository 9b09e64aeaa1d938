package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
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
// rows, bit for bit, and the layout's Dense to the encoder's Transform.
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
		x, err := enc.Transform(row)
		if err != nil {
			t.Fatal(err)
		}
		l.Dense(sparse.Row(i), dense)
		for j := range x {
			if math.Float64bits(x[j]) != math.Float64bits(dense[j]) {
				t.Fatalf("row %d %v: Dense[%d] = %v, Transform says %v", i, row, j, dense[j], x[j])
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
