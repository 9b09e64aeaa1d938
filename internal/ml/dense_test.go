package ml

import "testing"

// The dense reference. Each classifier's probability is defined on the
// one-hot vector a row stands for: denseProba holds the loops the four
// models scored that vector with before any code read rows, unchanged,
// and the tests hold every compiled model to it bit for bit.

// dense returns the one-hot vector row of layout l stands for.
func dense(l *RowLayout, row SparseRow) []float64 {
	x := make([]float64, l.width)
	for _, c := range row.Active {
		x[c] = 1
	}
	for k, c := range l.numCols {
		x[c] = row.Nums[k]
	}
	return x
}

// denseProba returns [P(class 0), P(class 1)] of the feature vector x —
// [0.5, 0.5] for a model that is not fitted. A vector of another width
// than the model's is read as far as both go.
func denseProba(c Classifier, x []float64) [2]float64 {
	switch m := c.(type) {
	case *LogisticRegression:
		if !m.fitted {
			return [2]float64{0.5, 0.5}
		}
		z := m.bias
		for j, v := range x {
			if j < len(m.weights) && v != 0 {
				z += m.weights[j] * v
			}
		}
		p := sigmoid(z)
		return [2]float64{1 - p, p}
	case *SVM:
		if !m.fitted {
			return [2]float64{0.5, 0.5}
		}
		z := m.bias
		for j, v := range x {
			if j < len(m.weights) && v != 0 {
				z += m.weights[j] * v
			}
		}
		p := sigmoid(m.plattA*z + m.plattB)
		return [2]float64{1 - p, p}
	case *RandomForest:
		if !m.fitted || len(m.trees) == 0 {
			return [2]float64{0.5, 0.5}
		}
		sum := 0.0
		for _, t := range m.trees {
			node := t
			for node.feature >= 0 {
				if node.feature < len(x) && x[node.feature] <= node.threshold {
					node = node.left
				} else {
					node = node.right
				}
			}
			sum += node.prob
		}
		p := sum / float64(len(m.trees))
		return [2]float64{1 - p, p}
	case *DNN:
		if !m.fitted {
			return [2]float64{0.5, 0.5}
		}
		acts := make([][]float64, len(m.sizes))
		for l, s := range m.sizes {
			acts[l] = make([]float64, s)
		}
		copy(acts[0], x)
		nLayers := len(m.sizes) - 1
		for l := 0; l < nLayers; l++ {
			in, out := m.sizes[l], m.sizes[l+1]
			w := m.weights[l]
			for o := 0; o < out; o++ {
				z := m.biases[l][o]
				row := w[o*in : (o+1)*in]
				prev := acts[l]
				for i, v := range prev {
					if v != 0 {
						z += row[i] * v
					}
				}
				acts[l+1][o] = z
			}
			if l < nLayers-1 {
				relu(acts[l+1])
			} else {
				softmax(acts[l+1])
			}
		}
		out := acts[nLayers]
		return [2]float64{out[0], out[1]}
	}
	panic("denseProba: unknown classifier")
}

// labelled is a training set: rows of a layout and a label per row.
type labelled struct {
	l    *RowLayout
	rows *SparseRows
	y    []int
}

// fit fits c on d.
func (d labelled) fit(c Classifier) error { return c.Fit(d.l, d.rows, d.y) }

// accuracy scores c on d.
func (d labelled) accuracy(t testing.TB, c Classifier) float64 {
	t.Helper()
	cm, err := Evaluate(c, d.l, d.rows, d.y)
	if err != nil {
		t.Fatal(err)
	}
	return cm.Accuracy()
}

// numericSet lays the matrix x out as rows of a schema of numeric
// columns only: every cell of x is a numeric cell of its row, zeros
// included. It is the one-hot-free form of any matrix, and its rows
// are what a dense loop that skips zeros reads.
func numericSet(x [][]float64, y []int) labelled {
	cols := make([]ColumnSpec, len(x[0]))
	for i := range cols {
		cols[i] = ColumnSpec{Name: "x", Numeric: true}
	}
	enc := NewSchemaEncoder(cols)
	enc.fitted = true
	l, err := enc.Layout()
	if err != nil {
		panic(err)
	}
	rows := new(SparseRows)
	rows.Resize(l, len(x))
	for i, v := range x {
		copy(rows.Row(i).Nums, v)
	}
	return labelled{l, rows, y}
}
