package ml

import "sync"

// Vectorized inference. The paper's serving path classifies one alarm
// at a time; the stream pipeline (§5.5) hands the ML component whole
// micro-batches, so the per-call allocations (DNN activations, forest
// probability sums) and the cold-cache model walks dominate. The
// batch entry points below classify a whole feature matrix per call:
// model weights stay hot across rows, scratch buffers come from
// sync.Pool arenas (one in flight per P, so concurrent shards never
// contend), and every per-row arithmetic sequence is exactly the one
// Proba runs — batch results are bit-identical to the sequential
// path, which the equivalence tests in internal/core assert.

// BatchClassifier is implemented by classifiers with a vectorized,
// allocation-free inference path over whole feature matrices.
type BatchClassifier interface {
	Classifier
	// ProbBatch writes [P(class 0), P(class 1)] for row xs[i] into
	// out[i]. out must have at least len(xs) elements. The result for
	// each row is bit-identical to Proba(xs[i]).
	ProbBatch(xs [][]float64, out [][2]float64)
	// PredictBatch writes the argmax class for row xs[i] into out[i].
	// out must have at least len(xs) elements.
	PredictBatch(xs [][]float64, out []int)
}

// ProbaBatch fills out[i] with c.Proba(xs[i]) for every row, using the
// classifier's vectorized path when it implements BatchClassifier and
// falling back to per-row calls otherwise.
func ProbaBatch(c Classifier, xs [][]float64, out [][2]float64) {
	if bc, ok := c.(BatchClassifier); ok {
		bc.ProbBatch(xs, out)
		return
	}
	for i, x := range xs {
		out[i] = c.Proba(x)
	}
}

// PredictBatch fills out[i] with the argmax class of xs[i], using the
// classifier's vectorized path when available.
func PredictBatch(c Classifier, xs [][]float64, out []int) {
	if bc, ok := c.(BatchClassifier); ok {
		bc.PredictBatch(xs, out)
		return
	}
	for i, x := range xs {
		out[i] = Predict(c, x)
	}
}

// argmaxInto converts a filled probability column into class labels —
// the shared tail of every PredictBatch implementation.
func argmaxInto(probs [][2]float64, out []int) {
	for i, p := range probs {
		if p[1] >= p[0] {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
}

// predictViaProbBatch is the shared PredictBatch body: run the
// vectorized probability pass into a pooled column, then argmax.
func predictViaProbBatch(bc BatchClassifier, xs [][]float64, out []int) {
	a := probArenaPool.Get().(*probArena)
	probs := a.take(len(xs))
	bc.ProbBatch(xs, probs)
	argmaxInto(probs, out)
	probArenaPool.Put(a)
}

// probArena is a reusable flat scratch buffer. Arenas are recycled
// through sync.Pool, so each concurrently-classifying goroutine (one
// per pipeline shard or classify worker) gets its own and no batch
// ever allocates after warm-up.
type probArena struct {
	probs [][2]float64
	f64   []float64
}

var probArenaPool = sync.Pool{New: func() any { return new(probArena) }}

// take returns the arena's probability buffer grown to n rows.
func (a *probArena) take(n int) [][2]float64 {
	if cap(a.probs) < n {
		a.probs = make([][2]float64, n)
	}
	a.probs = a.probs[:n]
	return a.probs
}

// takeF64 returns the arena's float buffer grown to n elements,
// zeroed.
func (a *probArena) takeF64(n int) []float64 {
	if cap(a.f64) < n {
		a.f64 = make([]float64, n)
	}
	a.f64 = a.f64[:n]
	for i := range a.f64 {
		a.f64[i] = 0
	}
	return a.f64
}

// ---- LogisticRegression ----

// ProbBatch implements BatchClassifier: one pass over the flat weight
// vector per row, with the weights hot in cache across the batch.
func (m *LogisticRegression) ProbBatch(xs [][]float64, out [][2]float64) {
	for i, x := range xs {
		out[i] = m.Proba(x)
	}
}

// PredictBatch implements BatchClassifier.
func (m *LogisticRegression) PredictBatch(xs [][]float64, out []int) {
	predictViaProbBatch(m, xs, out)
}

// ---- SVM ----

// ProbBatch implements BatchClassifier: the fitted hyperplane and
// Platt parameters are reused across the whole batch.
func (m *SVM) ProbBatch(xs [][]float64, out [][2]float64) {
	for i, x := range xs {
		out[i] = m.Proba(x)
	}
}

// PredictBatch implements BatchClassifier.
func (m *SVM) PredictBatch(xs [][]float64, out []int) {
	predictViaProbBatch(m, xs, out)
}

// ---- RandomForest ----

// ProbBatch implements BatchClassifier. The loop is tree-outer /
// row-inner: each tree's nodes stay in cache while the whole batch
// walks it, instead of every row faulting all 50 trees back in. The
// per-row accumulation order (tree 0, 1, …) matches Proba exactly, so
// the averaged probabilities are bit-identical.
func (m *RandomForest) ProbBatch(xs [][]float64, out [][2]float64) {
	if !m.fitted || len(m.trees) == 0 {
		for i := range xs {
			out[i] = [2]float64{0.5, 0.5}
		}
		return
	}
	a := probArenaPool.Get().(*probArena)
	sums := a.takeF64(len(xs))
	for _, t := range m.trees {
		for i, x := range xs {
			node := t
			for node.feature >= 0 {
				if node.feature < len(x) && x[node.feature] <= node.threshold {
					node = node.left
				} else {
					node = node.right
				}
			}
			sums[i] += node.prob
		}
	}
	n := float64(len(m.trees))
	for i, s := range sums {
		p := s / n
		out[i] = [2]float64{1 - p, p}
	}
	probArenaPool.Put(a)
}

// PredictBatch implements BatchClassifier.
func (m *RandomForest) PredictBatch(xs [][]float64, out []int) {
	predictViaProbBatch(m, xs, out)
}

// ---- DNN ----

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

// ProbBatch implements BatchClassifier: a layer-outer batch forward
// pass over two pooled flat activation matrices, so the per-call
// [][]float64 activation allocation of Proba disappears and each
// layer's weight matrix is streamed through cache once per batch
// instead of once per alarm. Per row, the multiply-accumulate order
// is exactly forward()'s, so outputs are bit-identical to Proba.
func (m *DNN) ProbBatch(xs [][]float64, out [][2]float64) {
	if !m.fitted {
		for i := range xs {
			out[i] = [2]float64{0.5, 0.5}
		}
		return
	}
	in := m.sizes[0]
	m.probBatch(len(xs), func(r int, act []float64) {
		// forward() copies the input into a sizes[0]-length buffer;
		// clamp so over-wide rows truncate identically (short rows
		// read the same — the zero tail is skipped).
		x := xs[r]
		if len(x) > in {
			x = x[:in]
		}
		for o := range act {
			act[o] = denseDot(m.biases[0][o], m.weights[0][o*in:(o+1)*in], x)
		}
	}, out)
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

// probBatch is the batch forward pass behind ProbBatch and the sparse
// serving form, which differ only in how a row reaches the first layer:
// first fills act with row r's first-layer sums before activation.
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

// PredictBatch implements BatchClassifier.
func (m *DNN) PredictBatch(xs [][]float64, out []int) {
	predictViaProbBatch(m, xs, out)
}
