package ml

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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

// blockDataset is one-hot blocks of random sizes beside a continuous and
// a {0, 1, 2} numeric column, labelled by a noisy score over all of them.
func blockDataset(rng *rand.Rand, rows int) *Dataset {
	blocks := make([]int, 2+rng.Intn(3))
	width := 2
	for b := range blocks {
		blocks[b] = 2 + rng.Intn(30)
		width += blocks[b]
	}
	d := &Dataset{X: make([][]float64, rows), Y: make([]int, rows)}
	for i := range d.X {
		row := make([]float64, width)
		score, off := 0.0, 0
		for _, b := range blocks {
			v := rng.Intn(b)
			row[off+v] = 1
			if v%3 == 0 {
				score++
			}
			off += b
		}
		row[off], row[off+1] = rng.NormFloat64(), float64(rng.Intn(3))
		score += row[off] + 0.5*row[off+1] + rng.NormFloat64()
		if score > 1.5 {
			d.Y[i] = 1
		}
		d.X[i] = row
	}
	return d
}

// directCounts counts the 0/1 columns over idx from the dense rows.
func directCounts(d *Dataset, v *trainView, idx []int32) []oneCount {
	out := make([]oneCount, len(v.bin))
	for _, i := range idx {
		for f, x := range d.X[i] {
			if v.bin[f] != nil && x == 1 {
				out[f].n++
				out[f].pos += int32(d.Y[i])
			}
		}
	}
	return out
}

// TestCarriedCountsMatchDirectCounts: every node grow searches is handed
// the 0/1 column counts and the positives a direct count over its rows
// gives, whether they were scanned, subtracted from its parent's or
// carried down from its parent's split; a node grow makes a leaf is
// handed no counts. The sets reach MaxDepth and hold pure children.
func TestCarriedCountsMatchDirectCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 12; trial++ {
		d := blockDataset(rng, 200+rng.Intn(1500))
		v, err := newTrainView(d)
		if err != nil {
			t.Fatal(err)
		}
		cfg := RandomForestConfig{MinLeaf: 1 + 2*(trial%2), MaxDepth: 4 + rng.Intn(8), MaxThresholds: 8}
		b := newTreeBuilder(v, cfg, 1+rng.Intn(len(v.bin)))
		var searched, pure, deep int
		b.visit = func(idx []int32, depth int, counts []oneCount, pos int) {
			want := 0
			for _, i := range idx {
				want += d.Y[i]
			}
			if pos != want {
				t.Fatalf("trial %d depth %d: %d rows carry %d positives, want %d", trial, depth, len(idx), pos, want)
			}
			if !b.splits(len(idx), pos, depth) {
				if counts != nil {
					t.Fatalf("trial %d depth %d: a leaf of %d rows was handed counts", trial, depth, len(idx))
				}
				if pos == 0 || pos == len(idx) {
					pure++
				}
				if depth >= cfg.MaxDepth {
					deep++
				}
				return
			}
			searched++
			if want := directCounts(d, v, idx); !slices.Equal(counts, want) {
				t.Fatalf("trial %d depth %d: counts over %d rows differ from a direct count", trial, depth, len(idx))
			}
		}
		for seed := int64(0); seed < 3; seed++ {
			b.tree(seed)
		}
		if searched == 0 || pure == 0 || deep == 0 {
			t.Fatalf("trial %d: %d searched, %d pure, %d at MaxDepth %d: the set does not reach every case",
				trial, searched, pure, deep, cfg.MaxDepth)
		}
	}
}

// TestCountSlotsFollowTheDepthReached: the count slots grow with the
// depth a tree reaches, so an unbounded MaxDepth costs nothing up front.
func TestCountSlotsFollowTheDepthReached(t *testing.T) {
	d := blockDataset(rand.New(rand.NewSource(4)), 300)
	v, err := newTrainView(d)
	if err != nil {
		t.Fatal(err)
	}
	b := newTreeBuilder(v, RandomForestConfig{MinLeaf: 1, MaxDepth: 1 << 30, MaxThresholds: 8}, len(v.bin))
	tree := b.tree(1)
	if got, depth := len(b.levels), nodeDepth(tree); got == 0 || got > depth+1 {
		t.Fatalf("%d count levels for a tree of depth %d", got, depth)
	}
	m := NewRandomForest(RandomForestConfig{NumTrees: 3, MaxDepth: 1 << 30, Seed: 2})
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
}
