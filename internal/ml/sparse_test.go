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

// rowsOf encodes rows with enc into serving rows of layout l, checking
// each categorical cell against the layout's own lookup (the one
// dataset.AlarmEncoder resolves live alarms through).
func rowsOf(t testing.TB, enc *SchemaEncoder, l *RowLayout, rows []Row) *SparseRows {
	t.Helper()
	sr := new(SparseRows)
	sr.Resize(l, len(rows))
	for i, row := range rows {
		if err := enc.Transform(row, sr.Row(i)); err != nil {
			t.Fatal(err)
		}
		for g, v := range row.Cats {
			if got, want := sr.Row(i).Active[g], l.Column(g, v); got != want {
				t.Fatalf("row %d %v: Transform puts group %d's 1 at %d, Column at %d", i, row, g, got, want)
			}
		}
	}
	return sr
}

// checkCompiled holds a compiled model to the dense reference over rows,
// bit for bit.
func checkCompiled(t testing.TB, c Classifier, enc *SchemaEncoder, l *RowLayout, rows []Row) {
	t.Helper()
	sm, err := Compile(c, l)
	if err != nil {
		t.Fatalf("%s: compile: %v", c.Name(), err)
	}
	sparse := rowsOf(t, enc, l, rows)
	got := make([][2]float64, len(rows))
	sm.ProbSparse(sparse, got)
	for i, row := range rows {
		want := denseProba(c, dense(l, sparse.Row(i)))
		if math.Float64bits(got[i][0]) != math.Float64bits(want[0]) ||
			math.Float64bits(got[i][1]) != math.Float64bits(want[1]) {
			t.Fatalf("%s: row %d %v: compiled %v, dense %v", c.Name(), i, row, got[i], want)
		}
	}
}

// TestCompiledMatchesProba: all four classifiers, fitted, score sparse
// rows exactly as the dense reference scores their one-hot vectors —
// with and without a numeric column in the middle of the schema, unseen
// categories included.
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
		d := labelled{l, rowsOf(t, enc, l, train), labels}
		var probe []Row
		for i := 0; i < 200; i++ {
			probe = append(probe, randomRow(rng, withNum, true))
		}
		for _, c := range classifiersUnderTest() {
			if _, err := Compile(c, l); !errors.Is(err, ErrNotFitted) {
				t.Fatalf("%s: compiling an unfitted model: %v, want ErrNotFitted", c.Name(), err)
			}
			if err := d.fit(c); err != nil {
				t.Fatal(err)
			}
			checkCompiled(t, c, enc, l, probe)
		}
	}
}

// TestCompileRefusesMisfit: a model trained on another width than the
// encoder's does not compile. The dense loops would have scored it,
// reading past the mismatch.
func TestCompileRefusesMisfit(t *testing.T) {
	_, l := sparseSchema(t, true)
	for _, width := range []int{l.Width() - 1, l.Width() + 1} {
		x, y := make([][]float64, 80), make([]int, 80)
		for i := range x {
			x[i], y[i] = make([]float64, width), i%2
			x[i][width-1] = float64(y[i]) // the last column is the only signal: a forest splits on it
		}
		d := numericSet(x, y)
		for _, c := range classifiersUnderTest() {
			if err := d.fit(c); err != nil {
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
// the dense reference answers on the one-hot vector, to the bit.
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

// mixedRows is a training set of serving rows: two categorical columns,
// a numeric one that is 0/1 throughout between them and a numeric one
// with other values (-0 among them) last.
func mixedRows(t testing.TB, n int) labelled {
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
	return labelled{l, rowsOf(t, enc, l, rows), y}
}

// numericForm returns d's rows written as numeric cells only: the dense
// matrix they stand for, cell for cell, which a dense loop that skips
// zeros reads the way the numeric-only rows are read.
func numericForm(d labelled) labelled {
	x := make([][]float64, len(d.y))
	for i := range x {
		x[i] = dense(d.l, d.rows.Row(i))
	}
	return numericSet(x, d.y)
}

// TestRowsViewMatchesDenseView: the forest's view of serving rows is
// the view of their dense matrix — every column of the same kind (the
// 0/1 numeric column a bitset, the other numeric column numbers) and
// every row listing the same 1s, in whatever order.
func TestRowsViewMatchesDenseView(t *testing.T) {
	d := mixedRows(t, 300)
	num := numericForm(d)
	got, want := newRowsView(d.l, d.rows, d.y), newRowsView(num.l, num.rows, num.y)
	for _, v := range []*trainView{want, got} {
		for i := range v.y {
			slices.Sort(v.ones[v.start[i]:v.start[i+1]])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the rows' view differs from the dense matrix's")
	}
	flag, score := d.l.numCols[0], d.l.numCols[1]
	if got.bin[flag] == nil || got.num[score] == nil {
		t.Fatalf("flag numeric %v, score binary %v", got.bin[flag] == nil, got.num[score] == nil)
	}
}

// TestOneHotFitMatchesNumericFit: a one-hot cell is read as the numeric
// cell 1 would be, so every classifier fitted on rows saves the model it
// saves fitted on their dense matrix written as numeric cells.
func TestOneHotFitMatchesNumericFit(t *testing.T) {
	d := mixedRows(t, 500)
	num := numericForm(d)
	for i, c := range classifiersUnderTest() {
		if err := d.fit(c); err != nil {
			t.Fatal(err)
		}
		ref := classifiersUnderTest()[i]
		if err := num.fit(ref); err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := SaveClassifier(&a, c); err != nil {
			t.Fatal(err)
		}
		if err := SaveClassifier(&b, ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: the one-hot rows fit a different model than the numeric rows", c.Name())
		}
	}
}

// TestFitRowsRejectsMalformedRows: rows that do not fit the layout or
// their labels are refused before anything is fitted — the model is
// left as unfitted as it was.
func TestFitRowsRejectsMalformedRows(t *testing.T) {
	d := mixedRows(t, 20)
	_, other := sparseSchema(t, false)
	var empty SparseRows
	empty.Resize(d.l, 0)
	bad := append([]int(nil), d.y...)
	bad[3] = 2
	var wide SparseRows
	wide.Resize(d.l, 1)
	copy(wide.active, []uint16{uint16(d.l.width), 0})
	cases := map[string]struct {
		c    labelled
		want error
	}{
		"no rows":               {labelled{d.l, &empty, nil}, ErrEmptyDataset},
		"short labels":          {labelled{d.l, d.rows, d.y[1:]}, ErrShape},
		"label 2":               {labelled{d.l, d.rows, bad}, ErrShape},
		"other layout":          {labelled{other, d.rows, d.y}, ErrShape},
		"column past the width": {labelled{d.l, &wide, []int{1}}, ErrShape},
	}
	for name, tc := range cases {
		for _, m := range classifiersUnderTest() {
			if err := tc.c.fit(m); !errors.Is(err, tc.want) {
				t.Errorf("%s: %s: err = %v, want %v", m.Name(), name, err, tc.want)
			}
			if _, err := Compile(m, d.l); !errors.Is(err, ErrNotFitted) {
				t.Errorf("%s: %s: compile after a refused fit: err = %v, want ErrNotFitted", m.Name(), name, err)
			}
		}
	}
}
