package ml

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// RandomForestConfig mirrors the paper's Table 3.
type RandomForestConfig struct {
	NumTrees int // Table 3: 50
	MaxDepth int // Table 3: 30
	// MinLeaf is the minimum samples per leaf (pre-pruning).
	MinLeaf int
	// FeatureFraction picks how many features each split considers;
	// 0 means the √(width) default.
	FeatureFraction float64
	// MaxThresholds caps candidate split thresholds per numeric
	// feature (one-hot features only ever have one).
	MaxThresholds int
	Seed          int64
}

// DefaultRandomForestConfig returns the paper's Table 3 parameters
// (50 trees, depth 30). The per-split feature count is not published;
// the default (√(width), floored at 48) is our grid-search result on
// the one-hot encoded alarm data, where a bare √(width) is too small
// to reliably reach informative features among the wide location
// block, while large fractions make splits needlessly expensive.
func DefaultRandomForestConfig() RandomForestConfig {
	return RandomForestConfig{
		NumTrees:      50,
		MaxDepth:      30,
		MinLeaf:       1,
		MaxThresholds: 16,
		Seed:          1,
	}
}

// defaultMtryFloor lifts the √(width) feature sample on wide one-hot
// matrices (see DefaultRandomForestConfig).
const defaultMtryFloor = 48

// RandomForest is a bagged ensemble of CART trees with per-split
// feature subsampling — the paper's best classifier on the Sitasys
// data (up to 92 % accuracy, Figure 10). Its probability is the mean of
// the leaf class distributions across trees.
type RandomForest struct {
	Config RandomForestConfig

	trees  []*treeNode
	fitted bool
}

// NewRandomForest creates a forest with the given config.
func NewRandomForest(cfg RandomForestConfig) *RandomForest {
	return &RandomForest{Config: cfg}
}

// Name implements Classifier.
func (m *RandomForest) Name() string { return "rf" }

// treeNode is one CART node. Leaves have prob set and feature == -1.
type treeNode struct {
	feature     int
	threshold   float64
	left, right *treeNode
	prob        float64 // P(class 1) at a leaf
}

// Fit implements Classifier. Training is deterministic for a seed:
// every tree draws from its own RNG, so which worker grows it and when
// does not matter.
func (m *RandomForest) Fit(l *RowLayout, rows *SparseRows, y []int) error {
	if err := checkFit(l, rows, y); err != nil {
		return err
	}
	m.fit(newRowsView(l, rows, y))
	return nil
}

// fit grows the forest on view. The view and the workers' scratch live
// for this call only; the trees are all that the forest keeps.
func (m *RandomForest) fit(view *trainView) {
	cfg := m.Config
	if cfg.NumTrees < 1 {
		cfg.NumTrees = 1
	}
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	if cfg.MaxThresholds < 1 {
		cfg.MaxThresholds = 16
	}
	width := len(view.bin)
	mtry := int(cfg.FeatureFraction * float64(width))
	if mtry <= 0 {
		mtry = int(math.Sqrt(float64(width)))
		if mtry < defaultMtryFloor {
			mtry = defaultMtryFloor
		}
	}
	if mtry > width {
		mtry = width
	}
	trees := make([]*treeNode, cfg.NumTrees)
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	seeds := make([]int64, cfg.NumTrees)
	for i := range seeds {
		seeds[i] = seedRng.Int63()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), cfg.NumTrees); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := newTreeBuilder(view, cfg, mtry)
			for i := int(next.Add(1)) - 1; i < len(trees); i = int(next.Add(1)) - 1 {
				trees[i] = b.tree(seeds[i])
			}
		}()
	}
	wg.Wait()
	m.trees = trees
	m.fitted = true
}

// trainView is the training set turned feature-major for one fit. Tree
// growth reads one feature over a node's rows, and in a row-major matrix
// those reads are a row apart — 8 KB at a thousand features, a cache
// miss each. The view stores what growth reads the way it reads it, by
// the kind of column the data holds:
//
//   - a column that holds only 0 and 1 over every row (a one-hot
//     indicator) is a bitset of n bits, and each row also lists which of
//     these columns are 1 in it, so a node can count all of them in one
//     pass over its rows' lists (treeBuilder.scan);
//   - a column with any other value is a contiguous []float64.
type trainView struct {
	y     []uint8     // label by row
	bin   [][]uint64  // bin[f] is column f if it is 0/1 throughout (row i is bit i&63 of word i>>6), else nil
	num   [][]float64 // num[f] is column f otherwise, else nil
	ones  []int32     // the 0/1 columns that are 1, row after row
	start []int       // row i's list is ones[start[i]:start[i+1]]
}

// viewCells is a training set read row by row: the columns that hold a
// 1 and the cells that hold anything else but 0. newView makes the view
// from it.
type viewCells struct {
	width int
	y     []int
	ones  []int32 // the columns holding 1, row after row
	start []int   // row i's are ones[start[i]:start[i+1]]
	other []cell  // every cell holding neither 0 nor 1, in row order
}

// cell is one cell of viewCells.other.
type cell struct {
	row, col int32
	x        float64
}

// newView is the one place a view's columns are classified and laid out.
// A column with a cell in c.other is numeric: it is rebuilt whole — its
// 1s from the lists, the rest from c.other — and its 1s leave the lists.
// Every other column is 0/1 throughout and becomes a bitset.
func newView(c viewCells) *trainView {
	n := len(c.start) - 1
	v := &trainView{
		y:     make([]uint8, n),
		bin:   make([][]uint64, c.width),
		num:   make([][]float64, c.width),
		ones:  c.ones,
		start: c.start,
	}
	for i, y := range c.y {
		v.y[i] = uint8(y)
	}
	numeric := make([]bool, c.width)
	numerics := 0
	for _, o := range c.other {
		if !numeric[o.col] {
			numeric[o.col] = true
			numerics++
		}
	}
	nums := make([]float64, numerics*n)
	for f, isNum := range numeric {
		if isNum {
			v.num[f], nums = nums[:n:n], nums[n:]
		}
	}
	if numerics > 0 {
		// A numeric column takes its 1s back out of the lists.
		w, lo := 0, 0
		for i := 0; i < n; i++ {
			hi := v.start[i+1]
			for _, f := range v.ones[lo:hi] {
				if numeric[f] {
					v.num[f][i] = 1
				} else {
					v.ones[w] = f
					w++
				}
			}
			lo, v.start[i+1] = hi, w
		}
		v.ones = v.ones[:w]
		for _, o := range c.other {
			v.num[o.col][o.row] = o.x
		}
	}
	words := (n + 63) / 64
	bins := make([]uint64, (c.width-numerics)*words)
	for f, isNum := range numeric {
		if !isNum {
			v.bin[f], bins = bins[:words:words], bins[words:]
		}
	}
	for i := 0; i < n; i++ {
		for _, f := range v.ones[v.start[i]:v.start[i+1]] {
			v.bin[f][i>>6] |= 1 << (i & 63)
		}
	}
	return v
}

// maxThresholdSample is how many of a node's rows a numeric column's
// candidate thresholds are drawn from.
const maxThresholdSample = 256

// treeBuilder grows trees from a view, one after another, out of one
// set of scratch.
type treeBuilder struct {
	v    *trainView
	cfg  RandomForestConfig
	mtry int
	rng  *rand.Rand

	rows   []int32         // the tree's bootstrap sample (row numbers); a node is a sub-slice of it
	spill  []int32         // rows going right while a node is partitioned
	levels [][2][]oneCount // levels[d]: the counts of a left and a right node at depth d
	vals   []float64       // one numeric column over the current node's rows
	sample []float64       // the values its thresholds are drawn from
	thr    []float64       // the thresholds

	// visit, when set, sees every node grow is called on, with the counts
	// and positives it was handed.
	visit func(idx []int32, depth int, counts []oneCount, pos int)
}

// oneCount is what a split on a 0/1 column needs to know about a node.
type oneCount struct {
	n   int32 // rows of the node with a 1 in the column
	pos int32 // positives among them
}

func newTreeBuilder(v *trainView, cfg RandomForestConfig, mtry int) *treeBuilder {
	n := len(v.y)
	return &treeBuilder{
		v: v, cfg: cfg, mtry: mtry,
		rows:   make([]int32, n),
		spill:  make([]int32, 0, n),
		sample: make([]float64, 0, maxThresholdSample),
		thr:    make([]float64, 0, cfg.MaxThresholds),
	}
}

// tree grows one tree on a bootstrap sample drawn from seed. The root's
// positives and counts are the only ones read off the rows; every other
// node's come down from its parent.
func (b *treeBuilder) tree(seed int64) *treeNode {
	b.rng = rand.New(rand.NewSource(seed))
	pos := 0
	for j := range b.rows {
		i := int32(b.rng.Intn(len(b.rows)))
		b.rows[j] = i
		pos += int(b.v.y[i])
	}
	var counts []oneCount
	if b.splits(len(b.rows), pos, 0) {
		counts = b.level(0)[0]
		b.scan(counts, b.rows)
	}
	return b.grow(b.rows, 0, counts, pos)
}

// splits reports whether grow searches a node of n rows, pos of them
// positive, at depth for a split. It is the one test that decides both
// whether grow makes a leaf and whether the node is handed counts.
func (b *treeBuilder) splits(n, pos, depth int) bool {
	return n >= 2*b.cfg.MinLeaf && depth < b.cfg.MaxDepth && pos > 0 && pos < n
}

// grow builds the subtree over idx, reordering idx as it goes: a split
// moves the rows that go left to the front, each side keeping its order
// (the numeric threshold sample indexes a node's rows by position).
// pos is the node's positives and counts its 0/1 column counts, nil
// unless splits holds.
func (b *treeBuilder) grow(idx []int32, depth int, counts []oneCount, pos int) *treeNode {
	if b.visit != nil {
		b.visit(idx, depth, counts, pos)
	}
	n := len(idx)
	if !b.splits(n, pos, depth) {
		return &treeNode{feature: -1, prob: laplaceSmooth(pos, n)}
	}
	s, ok := b.bestSplit(idx, pos, counts)
	if !ok || s.nl < b.cfg.MinLeaf || n-s.nl < b.cfg.MinLeaf {
		return &treeNode{feature: -1, prob: laplaceSmooth(pos, n)}
	}
	b.partition(idx, s.feature, s.threshold)
	left, right := idx[:s.nl], idx[s.nl:]
	lc, rc := b.childCounts(counts, left, right, s.lp, pos-s.lp, depth+1)
	return &treeNode{
		feature:   s.feature,
		threshold: s.threshold,
		left:      b.grow(left, depth+1, lc, s.lp),
		right:     b.grow(right, depth+1, rc, pos-s.lp),
	}
}

// level returns the count slots of depth d, made the first time a tree
// reaches d.
func (b *treeBuilder) level(d int) *[2][]oneCount {
	for len(b.levels) <= d {
		w := len(b.v.bin)
		b.levels = append(b.levels, [2][]oneCount{make([]oneCount, w), make([]oneCount, w)})
	}
	return &b.levels[d]
}

// childCounts fills the counts of a split node's children at depth, the
// left one in the depth's left slot and the right one in its right slot,
// and returns each — nil for a child grow will make a leaf. Scanning a
// child's rows costs its rows' 1s; its parent's counts minus its
// sibling's cost one pass over the width. The smaller child is scanned,
// and so is the larger one unless the subtraction is cheaper; a leaf
// sibling is scanned only to be subtracted, when that beats the direct
// scan. The slots of depth are free to take them: grow finishes a node's
// left subtree before it starts the right one, so any earlier node at
// depth is done with its counts.
func (b *treeBuilder) childCounts(parent []oneCount, left, right []int32, lp, rp, depth int) (lc, rc []oneCount) {
	need := [2]bool{b.splits(len(left), lp, depth), b.splits(len(right), rp, depth)}
	if !need[0] && !need[1] {
		return nil, nil
	}
	rows, slots := [2][]int32{left, right}, b.level(depth)
	small, large := 0, 1
	if len(left) > len(right) {
		small, large = 1, 0
	}
	width := len(b.v.bin)
	scanned := need[small] || b.scanCost(len(rows[small]))+width < b.scanCost(len(rows[large]))
	if scanned {
		b.scan(slots[small], rows[small])
	}
	if need[large] {
		if scanned && width < b.scanCost(len(rows[large])) {
			subtract(slots[large], parent, slots[small])
		} else {
			b.scan(slots[large], rows[large])
		}
	}
	if need[0] {
		lc = slots[0]
	}
	if need[1] {
		rc = slots[1]
	}
	return lc, rc
}

// scanCost is what scan over k rows costs in columns touched: the view's
// 1s per row, times k.
func (b *treeBuilder) scanCost(k int) int { return k * len(b.v.ones) / len(b.v.y) }

// scan fills dst with the counts over idx: one pass over its rows' lists
// of 1s — a handful of increments a row into an array that stays in L1 —
// after which every 0/1 column's split is known without another look at
// the rows.
func (b *treeBuilder) scan(dst []oneCount, idx []int32) {
	clear(dst)
	v := b.v
	for _, i := range idx {
		y := int32(v.y[i])
		for _, f := range v.ones[v.start[i]:v.start[i+1]] {
			c := &dst[f]
			c.n++
			c.pos += y
		}
	}
}

// subtract sets dst to parent − sib column by column: the counts over
// the parent's rows that are not the sibling's. It is exact.
func subtract(dst, parent, sib []oneCount) {
	parent, sib = parent[:len(dst)], sib[:len(dst)]
	for f := range dst {
		dst[f] = oneCount{n: parent[f].n - sib[f].n, pos: parent[f].pos - sib[f].pos}
	}
}

// partition moves the rows of idx with feature feat ≤ thr to the front,
// both sides in their original order.
func (b *treeBuilder) partition(idx []int32, feat int, thr float64) {
	if col := b.v.bin[feat]; col != nil {
		partitionBits(idx, b.spill, col) // thr is 0.5: the 0s go left
		return
	}
	partitionBy(idx, b.spill, b.v.num[feat], thr)
}

// partitionBy is partition over a numeric column; spill has room for idx.
func partitionBy(idx, spill []int32, col []float64, thr float64) {
	nl, spill := 0, spill[:0]
	for _, i := range idx {
		if col[i] <= thr {
			idx[nl] = i
			nl++
		} else {
			spill = append(spill, i)
		}
	}
	copy(idx[nl:], spill)
}

// partitionBits is partition over a 0/1 column's bits: the rows whose
// bit is 0 go left.
func partitionBits(idx, spill []int32, col []uint64) {
	nl, spill := 0, spill[:0]
	for _, i := range idx {
		if col[i>>6]>>(i&63)&1 == 0 {
			idx[nl] = i
			nl++
		} else {
			spill = append(spill, i)
		}
	}
	copy(idx[nl:], spill)
}

// laplaceSmooth avoids hard 0/1 leaf probabilities.
func laplaceSmooth(pos, n int) float64 {
	return (float64(pos) + 1) / (float64(n) + 2)
}

// split is a node's chosen split: the rows whose feature is ≤ threshold
// go left, nl of them, lp of those positive.
type split struct {
	feature   int
	threshold float64
	nl, lp    int
}

// bestSplit searches mtry random features for the gini-optimal
// threshold, reading the 0/1 columns' splits off counts.
func (b *treeBuilder) bestSplit(idx []int32, pos int, counts []oneCount) (best split, ok bool) {
	n := len(idx)
	parentGini := giniImpurity(pos, n)
	bestGain := 1e-12
	width := len(b.v.bin)

	// Sample mtry features (with replacement).
	for k := 0; k < b.mtry; k++ {
		f := b.rng.Intn(width)
		if b.v.bin[f] != nil {
			// The one threshold is 0.5 and the rows with a 0 go left.
			c := counts[f]
			ln, lp := n-int(c.n), pos-int(c.pos)
			if ln == 0 || ln == n {
				continue
			}
			if gain := splitGain(parentGini, lp, ln, pos, n); gain > bestGain {
				bestGain, best, ok = gain, split{f, 0.5, ln, lp}, true
			}
			continue
		}
		col := b.v.num[f]
		vals := b.vals[:0]
		for _, i := range idx {
			vals = append(vals, col[i])
		}
		b.vals = vals
		for _, t := range b.candidateThresholds(vals) {
			lp, ln := 0, 0
			for j, x := range vals {
				if x <= t {
					ln++
					lp += int(b.v.y[idx[j]])
				}
			}
			if ln == 0 || ln == n {
				continue
			}
			if gain := splitGain(parentGini, lp, ln, pos, n); gain > bestGain {
				bestGain, best, ok = gain, split{f, t, ln, lp}, true
			}
		}
	}
	return best, ok
}

// splitGain is the gini gain of sending ln of a node's n rows left, lp
// of its pos positives among them.
func splitGain(parentGini float64, lp, ln, pos, n int) float64 {
	total := float64(n)
	rp, rn := pos-lp, n-ln
	return parentGini -
		(float64(ln)/total)*giniImpurity(lp, ln) -
		(float64(rn)/total)*giniImpurity(rp, rn)
}

// candidateThresholds returns up to MaxThresholds split points for a
// numeric column's values over a node's rows, in b.thr. Values that
// happen to be all 0/1 inside the node yield the single threshold 0.5.
func (b *treeBuilder) candidateThresholds(vals []float64) []float64 {
	onlyBinary := true
	seen0, seen1 := false, false
	for _, v := range vals {
		switch v {
		case 0:
			seen0 = true
		case 1:
			seen1 = true
		default:
			onlyBinary = false
		}
		if !onlyBinary {
			break
		}
	}
	out := b.thr[:0]
	if onlyBinary {
		if seen0 && seen1 {
			return append(out, 0.5)
		}
		return nil
	}
	// Distinct values (sampled) → midpoints.
	sample := b.sample[:0]
	if len(vals) > maxThresholdSample {
		for j := 0; j < maxThresholdSample; j++ {
			sample = append(sample, vals[b.rng.Intn(len(vals))])
		}
	} else {
		sample = append(sample, vals...)
	}
	sort.Float64s(sample)
	uniq := sample[:0]
	for i, v := range sample {
		if i == 0 || v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) < 2 {
		return nil
	}
	maxT := b.cfg.MaxThresholds
	if len(uniq)-1 <= maxT {
		for i := 0; i+1 < len(uniq); i++ {
			out = append(out, (uniq[i]+uniq[i+1])/2)
		}
		return out
	}
	stride := float64(len(uniq)-1) / float64(maxT)
	for k := 0; k < maxT; k++ {
		i := int(float64(k) * stride)
		out = append(out, (uniq[i]+uniq[i+1])/2)
	}
	return out
}

func giniImpurity(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}
