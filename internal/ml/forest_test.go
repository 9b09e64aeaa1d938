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
	x := [][]float64{
		// one-hot, one-hot, {0,1,2}, continuous, all-zero, has -0
		{1, 0, 1, 0.5, 0, negZero},
		{0, 1, 2, math.NaN(), 0, 1},
		{1, 1, 0, 1, 0, 0},
	}
	d := numericSet(x, []int{1, 0, 1})
	v := newRowsView(d.l, d.rows, d.y)
	// Row i is bit i: column 0 is 1 in rows 0 and 2, 0b101.
	wantBin := [][]uint64{{0b101}, {0b110}, nil, nil, {0}, {0b010}}
	if !reflect.DeepEqual(v.bin, wantBin) {
		t.Errorf("bin = %v, want %v", v.bin, wantBin)
	}
	for f, col := range v.num {
		if (col != nil) != (wantBin[f] == nil) {
			t.Errorf("column %d: numeric %v, binary %v", f, col != nil, wantBin[f] != nil)
		}
		for i := range col {
			if got, want := col[i], x[i][f]; got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
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

// TestFitRejectsMalformedDataset: every classifier makes the one check
// before it fits — rows that do not fit the layout or their labels are
// refused with ErrShape, whatever the algorithm.
func TestFitRejectsMalformedDataset(t *testing.T) {
	d := mixedRows(t, 20)
	_, other := sparseSchema(t, false)
	bad := append([]int(nil), d.y...)
	bad[3] = 2
	var wide SparseRows
	wide.Resize(d.l, 1)
	copy(wide.active, []uint16{uint16(d.l.width), 0})
	cases := map[string]labelled{
		"short labels":          {d.l, d.rows, d.y[1:]},
		"label 2":               {d.l, d.rows, bad},
		"other layout":          {other, d.rows, d.y},
		"no layout":             {nil, d.rows, d.y},
		"column past the width": {d.l, &wide, []int{1}},
	}
	for name, c := range cases {
		for _, m := range classifiersUnderTest() {
			if err := c.fit(m); !errors.Is(err, ErrShape) {
				t.Errorf("%s: %s: err = %v, want ErrShape", m.Name(), name, err)
			}
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
		if err := d.fit(m); err != nil {
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
// a {0, 1, 2} numeric column, labelled by a noisy score over all of them,
// as a matrix and its labels.
func blockDataset(rng *rand.Rand, rows int) ([][]float64, []int) {
	blocks := make([]int, 2+rng.Intn(3))
	width := 2
	for b := range blocks {
		blocks[b] = 2 + rng.Intn(30)
		width += blocks[b]
	}
	x, y := make([][]float64, rows), make([]int, rows)
	for i := range x {
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
			y[i] = 1
		}
		x[i] = row
	}
	return x, y
}

// directCounts counts the 0/1 columns over idx from the matrix.
func directCounts(x [][]float64, y []int, v *trainView, idx []int32) []oneCount {
	out := make([]oneCount, len(v.bin))
	for _, i := range idx {
		for f, c := range x[i] {
			if v.bin[f] != nil && c == 1 {
				out[f].n++
				out[f].pos += int32(y[i])
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
		x, y := blockDataset(rng, 200+rng.Intn(1500))
		d := numericSet(x, y)
		v := newRowsView(d.l, d.rows, d.y)
		cfg := RandomForestConfig{MinLeaf: 1 + 2*(trial%2), MaxDepth: 4 + rng.Intn(8), MaxThresholds: 8}
		b := newTreeBuilder(v, cfg, 1+rng.Intn(len(v.bin)))
		var searched, pure, deep int
		b.visit = func(idx []int32, depth int, counts []oneCount, pos int) {
			want := 0
			for _, i := range idx {
				want += y[i]
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
			if want := directCounts(x, y, v, idx); !slices.Equal(counts, want) {
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
	d := numericSet(blockDataset(rand.New(rand.NewSource(4)), 300))
	v := newRowsView(d.l, d.rows, d.y)
	b := newTreeBuilder(v, RandomForestConfig{MinLeaf: 1, MaxDepth: 1 << 30, MaxThresholds: 8}, len(v.bin))
	tree := b.tree(1)
	if got, depth := len(b.levels), nodeDepth(tree); got == 0 || got > depth+1 {
		t.Fatalf("%d count levels for a tree of depth %d", got, depth)
	}
	m := NewRandomForest(RandomForestConfig{NumTrees: 3, MaxDepth: 1 << 30, Seed: 2})
	if err := d.fit(m); err != nil {
		t.Fatal(err)
	}
}

// nodeDepth is the depth of the tree below n.
func nodeDepth(n *treeNode) int {
	if n == nil || n.feature < 0 {
		return 0
	}
	return 1 + max(nodeDepth(n.left), nodeDepth(n.right))
}
