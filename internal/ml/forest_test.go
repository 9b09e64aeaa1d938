package ml

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// TestTrainViewColumnKinds: the kind of a column is what the data
// holds. A column with anything but 0 and 1 in any row is numeric, and
// its 1s stay out of the rows' lists; -0 counts as 0, NaN as a value.
func TestTrainViewColumnKinds(t *testing.T) {
	negZero := math.Copysign(0, -1)
	d := &Dataset{
		X: [][]float64{
			// one-hot, one-hot, {0,1,2}, continuous, all-zero, has -0
			{1, 0, 1, 0.5, 0, negZero},
			{0, 1, 2, math.NaN(), 0, 1},
			{1, 1, 0, 1, 0, 0},
		},
		Y: []int{1, 0, 1},
	}
	v, err := newTrainView(d)
	if err != nil {
		t.Fatal(err)
	}
	wantBin := [][]uint8{{1, 0, 1}, {0, 1, 1}, nil, nil, {0, 0, 0}, {0, 1, 0}}
	if !reflect.DeepEqual(v.bin, wantBin) {
		t.Errorf("bin = %v, want %v", v.bin, wantBin)
	}
	for f, col := range v.num {
		if (col != nil) != (wantBin[f] == nil) {
			t.Errorf("column %d: numeric %v, binary %v", f, col != nil, wantBin[f] != nil)
		}
		for i := range col {
			if got, want := col[i], d.X[i][f]; got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("num[%d][%d] = %v, want %v", f, i, got, want)
			}
		}
	}
	wantOnes := [][]int32{{0}, {1, 5}, {0, 1}}
	for i, want := range wantOnes {
		if got := v.ones[v.start[i]:v.start[i+1]]; !reflect.DeepEqual(got, want) {
			t.Errorf("row %d lists %v, want %v", i, got, want)
		}
	}
	if !reflect.DeepEqual(v.y, []uint8{1, 0, 1}) {
		t.Errorf("y = %v", v.y)
	}
}

// TestFitRejectsMalformedDataset: a Dataset built as a literal skips
// NewDataset's checks; Fit narrows labels and slices rows, so it makes
// the two it depends on itself.
func TestFitRejectsMalformedDataset(t *testing.T) {
	cases := map[string]*Dataset{
		"short row":     {X: [][]float64{{0, 1}, {1}}, Y: []int{0, 1}},
		"label 2":       {X: [][]float64{{0, 1}, {1, 0}}, Y: []int{0, 2}},
		"missing label": {X: [][]float64{{0, 1}, {1, 0}}, Y: []int{0}},
	}
	for name, d := range cases {
		if err := NewRandomForest(DefaultRandomForestConfig()).Fit(d); !errors.Is(err, ErrShape) {
			t.Errorf("%s: err = %v, want ErrShape", name, err)
		}
	}
}

// TestFitIndependentOfWorkerCount: every tree draws from its own
// seeded RNG, so the forest is the same whatever GOMAXPROCS is.
func TestFitIndependentOfWorkerCount(t *testing.T) {
	d := linearDataset(400, 3, 0.05)
	fit := func(procs int) []*treeNode {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m := NewRandomForest(RandomForestConfig{NumTrees: 7, MaxDepth: 8, Seed: 5})
		if err := m.Fit(d); err != nil {
			t.Fatal(err)
		}
		return m.trees
	}
	one, four := fit(1), fit(4)
	for i := range one {
		if !reflect.DeepEqual(flattenTree(one[i]), flattenTree(four[i])) {
			t.Fatalf("tree %d differs between 1 and 4 workers", i)
		}
	}
}
