package ml

import (
	"fmt"
	"math"
	"sync"
)

// The serving row. A one-hot encoded alarm is Width() cells of which
// one per categorical column is 1 and the rest 0; a model that reads it
// as a []float64 pays for the zeros — 8 KB a row at a thousand features,
// zeroed per alarm and touched one cell a tree level. Serving therefore
// never builds that vector: a row is the column of each group's 1 plus
// the numeric cells, and a fitted classifier is compiled once, against
// the encoder's layout, into a form that reads exactly that.
// Classifier.Proba on the dense vector stays as the definition — the
// experiments run on it, and the tests hold every compiled model to it
// bit for bit.

// SparseRow is one serving row: what is not zero in the vector
// SchemaEncoder.TransformAll would build for it.
type SparseRow struct {
	// Active[g] is the column holding the 1 of the schema's g-th
	// categorical column; the rest of that column's one-hot block is 0.
	Active []uint16
	// Nums are the numeric cells, in schema order.
	Nums []float64
}

// SparseRows is a batch of serving rows in two flat slabs, so a batch
// costs its cells and nothing per row.
type SparseRows struct {
	n, groups, nums int
	active          []uint16
	num             []float64
}

// Resize makes r hold n rows of layout l, reusing its slabs; the cells
// keep whatever they held and are the caller's to fill.
func (r *SparseRows) Resize(l *RowLayout, n int) {
	r.n, r.groups, r.nums = n, len(l.groups), len(l.numCols)
	if cap(r.active) < n*r.groups {
		r.active = make([]uint16, n*r.groups)
	}
	r.active = r.active[:n*r.groups]
	if cap(r.num) < n*r.nums {
		r.num = make([]float64, n*r.nums)
	}
	r.num = r.num[:n*r.nums]
}

// Len returns the number of rows.
func (r *SparseRows) Len() int { return r.n }

// Row returns row i as views into the slabs.
func (r *SparseRows) Row(i int) SparseRow {
	return SparseRow{
		Active: r.active[i*r.groups : (i+1)*r.groups : (i+1)*r.groups],
		Nums:   r.num[i*r.nums : (i+1)*r.nums : (i+1)*r.nums],
	}
}

// RowLayout is where a fitted SchemaEncoder puts each schema column in
// the feature vector — what turns a categorical value into a SparseRow
// entry and what a classifier is compiled against. It is immutable.
type RowLayout struct {
	width   int
	groups  []layoutGroup // the categorical columns, in schema order
	numCols []uint16      // the feature column of each numeric cell, in schema order
	// slot says what feature column f is: s >= 0, a cell of group s's
	// one-hot block; s < 0, numeric cell -s-1.
	slot []int32
}

type layoutGroup struct {
	base    uint16 // first column of the one-hot block
	indexer *StringIndexer
}

// Layout returns the encoder's row layout. A serving row addresses
// columns and groups in 16 bits (less the two group numbers a compiled
// forest marks its leaves and numeric splits with), so an encoder wider
// than that has none.
func (e *SchemaEncoder) Layout() (*RowLayout, error) {
	if !e.fitted {
		return nil, ErrNotFitted
	}
	l := &RowLayout{width: e.Width()}
	if l.width >= nodeNumeric {
		return nil, fmt.Errorf("%w: %d features, a serving row addresses %d", ErrShape, l.width, nodeNumeric-1)
	}
	l.slot = make([]int32, 0, l.width)
	for i, c := range e.cols {
		pos := uint16(len(l.slot))
		if c.Numeric {
			l.slot = append(l.slot, -int32(len(l.numCols))-1)
			l.numCols = append(l.numCols, pos)
			continue
		}
		for j := e.indexers[i].OneHotWidth(); j > 0; j-- {
			l.slot = append(l.slot, int32(len(l.groups)))
		}
		l.groups = append(l.groups, layoutGroup{base: pos, indexer: e.indexers[i]})
	}
	return l, nil
}

// Width returns the width of the feature vector the layout describes.
func (l *RowLayout) Width() int { return l.width }

// Groups returns the number of categorical columns — a row's Active
// entries.
func (l *RowLayout) Groups() int { return len(l.groups) }

// Nums returns the number of numeric columns — a row's Nums entries.
func (l *RowLayout) Nums() int { return len(l.numCols) }

// Column returns the feature column that is 1 when categorical column
// g holds v: the value's own, or the group's reserved unseen column for
// a value the encoder was not fitted on.
func (l *RowLayout) Column(g int, v string) uint16 {
	grp := &l.groups[g]
	return grp.base + uint16(grp.indexer.Index(v))
}

// Dense writes the feature vector row stands for into dst (Width()
// cells) — the bridge from a serving row to Classifier.Proba.
func (l *RowLayout) Dense(row SparseRow, dst []float64) {
	clear(dst)
	for _, c := range row.Active {
		dst[c] = 1
	}
	for k, c := range l.numCols {
		dst[c] = row.Nums[k]
	}
}

// SparseModel is a classifier in its serving form: it scores rows of
// the layout it was compiled against.
type SparseModel interface {
	// ProbSparse writes [P(class 0), P(class 1)] of row i into out[i],
	// bit-identical to the source classifier's Proba on the row's dense
	// form. out must have at least rows.Len() elements.
	ProbSparse(rows *SparseRows, out [][2]float64)
}

// Compile turns a fitted classifier into its serving form over rows of
// layout l. This is also where a classifier that does not fit its
// encoder is caught — a forest that splits on a column the encoder
// does not have, a weight vector of another width; Proba reads past
// such a mismatch in silence — and refused with ErrBadModelFile. A
// classifier from outside this package must score serving rows itself.
func Compile(c Classifier, l *RowLayout) (SparseModel, error) {
	switch m := c.(type) {
	case *RandomForest:
		if !m.fitted {
			return nil, ErrNotFitted
		}
		return compileForest(m, l)
	case *LogisticRegression:
		if !m.fitted {
			return nil, ErrNotFitted
		}
		return newSparseLinear(m.weights, m.bias, sigmoid, l)
	case *SVM:
		if !m.fitted {
			return nil, ErrNotFitted
		}
		a, b := m.plattA, m.plattB
		return newSparseLinear(m.weights, m.bias, func(margin float64) float64 { return sigmoid(a*margin + b) }, l)
	case *DNN:
		if !m.fitted {
			return nil, ErrNotFitted
		}
		if m.sizes[0] != l.width {
			return nil, misfit("DNN input layer", m.sizes[0], l)
		}
		return &sparseDNN{m: m, numCols: l.numCols}, nil
	}
	if m, ok := c.(SparseModel); ok {
		return m, nil
	}
	return nil, fmt.Errorf("ml: cannot compile classifier %T", c)
}

// FitRows fits c on rows of layout l labelled y: the training set in the
// form serving encodes alarms into, so training needs no dense design
// matrix. A forest builds its view from the rows; any other classifier
// is fitted on the dense matrix the rows stand for (RowLayout.Dense),
// the cells SchemaEncoder.TransformAll would write. Either way the model
// is the one Fit on that matrix makes.
func FitRows(c Classifier, l *RowLayout, rows *SparseRows, y []int) error {
	n := rows.Len()
	if n == 0 {
		return ErrEmptyDataset
	}
	if len(y) != n {
		return fmt.Errorf("%w: %d rows vs %d labels", ErrShape, n, len(y))
	}
	if rows.groups != len(l.groups) || rows.nums != len(l.numCols) {
		return fmt.Errorf("%w: rows have %d categorical and %d numeric cells, the layout %d and %d",
			ErrShape, rows.groups, rows.nums, len(l.groups), len(l.numCols))
	}
	for _, col := range rows.active {
		if int(col) >= l.width {
			return fmt.Errorf("%w: column %d in a row of a layout %d wide", ErrShape, col, l.width)
		}
	}
	if m, ok := c.(*RandomForest); ok {
		view, err := newRowsView(l, rows, y)
		if err != nil {
			return err
		}
		m.fit(view)
		return nil
	}
	x := slabRows(n, l.width)
	for i := range x {
		l.Dense(rows.Row(i), x[i])
	}
	d, err := NewDataset(x, y, nil)
	if err != nil {
		return err
	}
	return c.Fit(d)
}

// newRowsView reads serving rows the way newTrainView reads a Dataset: a
// row's list is its Active columns and its numeric cells that are 1, and
// its other non-zero numeric cells are the view's other cells.
func newRowsView(l *RowLayout, rows *SparseRows, y []int) (*trainView, error) {
	n, g, m := rows.n, rows.groups, rows.nums
	c := viewCells{width: l.width, y: y, ones: make([]int32, 0, n*(g+m)), start: make([]int, n+1)}
	for i := 0; i < n; i++ {
		for _, col := range rows.active[i*g : (i+1)*g] {
			c.ones = append(c.ones, int32(col))
		}
		for k, x := range rows.num[i*m : (i+1)*m] {
			switch x {
			case 0:
			case 1:
				c.ones = append(c.ones, int32(l.numCols[k]))
			default:
				c.other = append(c.other, cell{int32(i), int32(l.numCols[k]), x})
			}
		}
		c.start[i+1] = len(c.ones)
	}
	return newView(c)
}

func misfit(what string, got int, l *RowLayout) error {
	return fmt.Errorf("%w: %s is %d wide, the encoder %d", ErrBadModelFile, what, got, l.width)
}

// sparseDot adds w·x to z for the row's dense form x, visiting the
// non-zero cells in ascending column order — the order and the terms
// of the dense loops in Proba, which skip zeros, so the sum is the same
// float. A one-hot cell contributes w[c]·1, which is w[c] exactly.
func sparseDot(z float64, w []float64, row SparseRow, numCols []uint16) float64 {
	k := 0
	for _, c := range row.Active {
		for ; k < len(numCols) && numCols[k] < c; k++ {
			if v := row.Nums[k]; v != 0 {
				z += w[numCols[k]] * v
			}
		}
		z += w[c]
	}
	for ; k < len(numCols); k++ {
		if v := row.Nums[k]; v != 0 {
			z += w[numCols[k]] * v
		}
	}
	return z
}

// sparseLinear serves LogisticRegression and SVM: a hyperplane and the
// link that turns its margin into P(class 1).
type sparseLinear struct {
	w       []float64
	bias    float64
	link    func(margin float64) float64
	numCols []uint16
}

func newSparseLinear(w []float64, bias float64, link func(float64) float64, l *RowLayout) (*sparseLinear, error) {
	if len(w) != l.width {
		return nil, misfit("weight vector", len(w), l)
	}
	return &sparseLinear{w: w, bias: bias, link: link, numCols: l.numCols}, nil
}

func (m *sparseLinear) ProbSparse(rows *SparseRows, out [][2]float64) {
	for i := range out[:rows.Len()] {
		p := m.link(sparseDot(m.bias, m.w, rows.Row(i), m.numCols))
		out[i] = [2]float64{1 - p, p}
	}
}

// sparseDNN serves a DNN: the first layer is a sparse dot product per
// unit, the layers behind it are the dense batch pass.
type sparseDNN struct {
	m       *DNN
	numCols []uint16
}

func (s *sparseDNN) ProbSparse(rows *SparseRows, out [][2]float64) {
	m := s.m
	in := m.sizes[0]
	m.probBatch(rows.Len(), func(r int, act []float64) {
		row := rows.Row(r)
		for o := range act {
			act[o] = sparseDot(m.biases[0][o], m.weights[0][o*in:(o+1)*in], row, s.numCols)
		}
	}, out)
}

// dnnArena holds the two flat activation matrices a batch forward
// pass ping-pongs between (batch × widest-hidden-layer each).
type dnnArena struct {
	a, b []float64
}

var dnnArenaPool = sync.Pool{New: func() any { return new(dnnArena) }}

func (ar *dnnArena) size(n int) {
	if cap(ar.a) < n {
		ar.a = make([]float64, n)
		ar.b = make([]float64, n)
	}
	ar.a = ar.a[:n]
	ar.b = ar.b[:n]
}

// denseDot adds w·x to z the way forward() does: in column order,
// skipping zero cells.
func denseDot(z float64, w, x []float64) float64 {
	for i, v := range x {
		if v != 0 {
			z += w[i] * v
		}
	}
	return z
}

// probBatch is the batch forward pass of the sparse serving form: first
// fills act with row r's first-layer sums before activation, and the
// layers behind it run over two pooled flat activation matrices. Per
// row, the multiply-accumulate order is exactly forward()'s.
func (m *DNN) probBatch(n int, first func(r int, act []float64), out [][2]float64) {
	if n == 0 {
		return
	}
	nLayers := len(m.sizes) - 1
	stride := 0
	for _, s := range m.sizes[1:] {
		if s > stride {
			stride = s
		}
	}
	ar := dnnArenaPool.Get().(*dnnArena)
	ar.size(n * stride)
	cur, next := ar.a, ar.b
	for l := 0; l < nLayers; l++ {
		in, outW := m.sizes[l], m.sizes[l+1]
		for r := 0; r < n; r++ {
			act := next[r*stride : r*stride+outW]
			if l == 0 {
				first(r, act)
			} else {
				prev := cur[r*stride : r*stride+in]
				for o := range act {
					act[o] = denseDot(m.biases[l][o], m.weights[l][o*in:(o+1)*in], prev)
				}
			}
			if l < nLayers-1 {
				relu(act)
			} else {
				softmax(act)
			}
		}
		cur, next = next, cur
	}
	// After the final swap, cur holds the softmax outputs.
	for r := 0; r < n; r++ {
		o := cur[r*stride : r*stride+2]
		out[r] = [2]float64{o[0], o[1]}
	}
	dnnArenaPool.Put(ar)
}

// compiledForest is a forest flattened for serving: every tree in
// preorder in one array, a node's left child the node after it, so a
// walk is a run of 16-byte nodes mostly read in order. A split on a
// one-hot column does not read the column: the row says which column of
// that group is 1, and the split asks whether it is this one.
type compiledForest struct {
	nodes []forestNode
	roots []uint32
}

type forestNode struct {
	// val is a numeric split's threshold or a leaf's P(class 1).
	val float64
	// right is the child taken when a one-hot split's column is the
	// active one, or a numeric cell exceeds val.
	right uint32
	// col is a one-hot split's column, or a numeric split's cell in
	// SparseRow.Nums.
	col uint16
	// group is the categorical column a one-hot split looks at, or one
	// of the two kinds below.
	group uint16
}

const (
	nodeLeaf    = math.MaxUint16
	nodeNumeric = math.MaxUint16 - 1
)

func compileForest(m *RandomForest, l *RowLayout) (*compiledForest, error) {
	f := &compiledForest{roots: make([]uint32, 0, len(m.trees))}
	for _, t := range m.trees {
		f.roots = append(f.roots, uint32(len(f.nodes)))
		if err := f.emit(t, l); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// emit appends the subtree under n in preorder. A one-hot cell is 0 or
// 1, so a split on one whose threshold is not in [0, 1) sends every row
// the same way: the node is dropped and that child stands in its place.
func (f *compiledForest) emit(n *treeNode, l *RowLayout) error {
	if n.feature < 0 {
		f.nodes = append(f.nodes, forestNode{val: n.prob, group: nodeLeaf})
		return nil
	}
	if n.feature >= l.width {
		return fmt.Errorf("%w: forest splits on column %d, the encoder is %d wide", ErrBadModelFile, n.feature, l.width)
	}
	at := len(f.nodes)
	if s := l.slot[n.feature]; s < 0 {
		f.nodes = append(f.nodes, forestNode{val: n.threshold, col: uint16(-s - 1), group: nodeNumeric})
	} else if n.threshold >= 1 { // 0 and 1 are both ≤ it
		return f.emit(n.left, l)
	} else if !(n.threshold >= 0) { // neither is, nor is anything ≤ NaN
		return f.emit(n.right, l)
	} else {
		f.nodes = append(f.nodes, forestNode{col: uint16(n.feature), group: uint16(s)})
	}
	if err := f.emit(n.left, l); err != nil {
		return err
	}
	f.nodes[at].right = uint32(len(f.nodes))
	return f.emit(n.right, l)
}

// ProbSparse implements SparseModel. The loop is tree-outer, row-inner — a tree stays in cache while the batch
// walks it — and a row's leaf probabilities are added in tree order, as
// Proba adds them. The sum is kept in out[i][1] until the last tree.
//
//alarmvet:hotpath
func (f *compiledForest) ProbSparse(rows *SparseRows, out [][2]float64) {
	out = out[:rows.Len()]
	if len(f.roots) == 0 {
		for i := range out {
			out[i] = [2]float64{0.5, 0.5}
		}
		return
	}
	for i := range out {
		out[i][1] = 0
	}
	nodes, g, m := f.nodes, rows.groups, rows.nums
	for _, root := range f.roots {
		for i := range out {
			active := rows.active[i*g : (i+1)*g]
			k := root
			for {
				n := &nodes[k]
				if int(n.group) < len(active) {
					if active[n.group] == n.col {
						k = n.right
					} else {
						k++
					}
					continue
				}
				if n.group == nodeLeaf {
					out[i][1] += n.val
					break
				}
				if rows.num[i*m+int(n.col)] <= n.val {
					k++
				} else {
					k = n.right
				}
			}
		}
	}
	trees := float64(len(f.roots))
	for i := range out {
		p := out[i][1] / trees
		out[i] = [2]float64{1 - p, p}
	}
}
