package ml

import (
	"math"
	"math/rand"
)

// DNNConfig mirrors the paper's Tables 6 and 7: a fully-connected
// network trained with cross-entropy loss and Nesterov momentum.
type DNNConfig struct {
	// HiddenLayers lists hidden-layer widths; Table 7 uses {50, 2}
	// (input 803 → 50 ReLU → 2 ReLU → 2 softmax).
	HiddenLayers []int
	MaxEpochs    int     // Table 6: 10,000 (an upper bound)
	MiniBatch    int     // Table 6: 200
	LearningRate float64 // Table 6: 0.1
	Momentum     float64 // Table 6: 0.9 (Nesterov)
	// Patience stops training once the epoch loss has not improved
	// for this many epochs (0 disables early stopping). The paper
	// caps epochs at 10,000 but trains far fewer in practice.
	Patience int
	Seed     int64
}

// DefaultDNNConfig returns the paper's Tables 6–7 parameters with
// early stopping enabled.
func DefaultDNNConfig() DNNConfig {
	return DNNConfig{
		HiddenLayers: []int{50, 2},
		MaxEpochs:    10000,
		MiniBatch:    200,
		LearningRate: 0.1,
		Momentum:     0.9,
		Patience:     10,
		Seed:         1,
	}
}

// DNN is the paper's deep-neural-network classifier: dense ReLU
// hidden layers and a 2-way softmax output trained with mini-batch
// Nesterov-momentum SGD on one-hot encoded inputs (§5.3.3).
type DNN struct {
	Config DNNConfig

	// layers[i] maps sizes[i] -> sizes[i+1].
	weights [][]float64 // row-major (out × in)
	biases  [][]float64
	sizes   []int
	// EpochsRun reports how many epochs Fit actually ran.
	EpochsRun int
	fitted    bool
}

// NewDNN creates a network with the given config.
func NewDNN(cfg DNNConfig) *DNN { return &DNN{Config: cfg} }

// Name implements Classifier.
func (m *DNN) Name() string { return "dnn" }

// Fit implements Classifier.
func (m *DNN) Fit(d *Dataset) error {
	if d == nil || d.Len() == 0 {
		return ErrEmptyDataset
	}
	cfg := m.Config
	if cfg.MiniBatch < 1 {
		cfg.MiniBatch = 1
	}
	if cfg.MaxEpochs < 1 {
		cfg.MaxEpochs = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	m.sizes = append([]int{d.Width()}, cfg.HiddenLayers...)
	m.sizes = append(m.sizes, 2)
	nLayers := len(m.sizes) - 1
	m.weights = make([][]float64, nLayers)
	m.biases = make([][]float64, nLayers)
	// Velocity buffers for Nesterov momentum.
	vw := make([][]float64, nLayers)
	vb := make([][]float64, nLayers)
	for l := 0; l < nLayers; l++ {
		in, out := m.sizes[l], m.sizes[l+1]
		m.weights[l] = make([]float64, in*out)
		m.biases[l] = make([]float64, out)
		vw[l] = make([]float64, in*out)
		vb[l] = make([]float64, out)
		// He initialization for ReLU layers.
		scale := math.Sqrt(2.0 / float64(in))
		for i := range m.weights[l] {
			m.weights[l][i] = rng.NormFloat64() * scale
		}
	}

	// Scratch buffers reused across samples.
	acts := make([][]float64, nLayers+1)
	deltas := make([][]float64, nLayers+1)
	for l, s := range m.sizes {
		acts[l] = make([]float64, s)
		deltas[l] = make([]float64, s)
	}
	gw := make([][]float64, nLayers)
	gb := make([][]float64, nLayers)
	for l := 0; l < nLayers; l++ {
		gw[l] = make([]float64, len(m.weights[l]))
		gb[l] = make([]float64, len(m.biases[l]))
	}

	order := rng.Perm(d.Len())
	bestLoss := math.Inf(1)
	bad := 0
	for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		for start := 0; start < len(order); start += cfg.MiniBatch {
			end := start + cfg.MiniBatch
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			// Nesterov lookahead: evaluate gradient at w + mu*v.
			for l := 0; l < nLayers; l++ {
				for i, v := range vw[l] {
					m.weights[l][i] += cfg.Momentum * v
				}
				for i, v := range vb[l] {
					m.biases[l][i] += cfg.Momentum * v
				}
				zero(gw[l])
				zero(gb[l])
			}
			for _, i := range batch {
				epochLoss += m.backprop(d.X[i], d.Y[i], acts, deltas, gw, gb)
			}
			// Undo lookahead, then apply the momentum update.
			nb := float64(len(batch))
			for l := 0; l < nLayers; l++ {
				for i := range vw[l] {
					m.weights[l][i] -= cfg.Momentum * vw[l][i]
					vw[l][i] = cfg.Momentum*vw[l][i] - cfg.LearningRate*gw[l][i]/nb
					m.weights[l][i] += vw[l][i]
				}
				for i := range vb[l] {
					m.biases[l][i] -= cfg.Momentum * vb[l][i]
					vb[l][i] = cfg.Momentum*vb[l][i] - cfg.LearningRate*gb[l][i]/nb
					m.biases[l][i] += vb[l][i]
				}
			}
		}
		m.EpochsRun = epoch + 1
		epochLoss /= float64(len(order))
		if cfg.Patience > 0 {
			if epochLoss < bestLoss-1e-5 {
				bestLoss = epochLoss
				bad = 0
			} else {
				bad++
				if bad >= cfg.Patience {
					break
				}
			}
		}
	}
	m.fitted = true
	return nil
}

func zero(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// forward fills acts[0..nLayers] and returns the softmax output slice
// (acts[nLayers]).
func (m *DNN) forward(x []float64, acts [][]float64) []float64 {
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
	return acts[nLayers]
}

func relu(s []float64) {
	for i, v := range s {
		if v < 0 {
			s[i] = 0
		}
	}
}

func softmax(s []float64) {
	max := s[0]
	for _, v := range s[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range s {
		s[i] = math.Exp(v - max)
		sum += s[i]
	}
	for i := range s {
		s[i] /= sum
	}
}

// backprop runs one forward/backward pass, accumulating gradients into
// gw/gb, and returns the sample's cross-entropy loss.
func (m *DNN) backprop(x []float64, y int, acts, deltas, gw, gb [][]float64) float64 {
	out := m.forward(x, acts)
	nLayers := len(m.sizes) - 1
	loss := -math.Log(math.Max(out[y], 1e-12))

	// Softmax + cross-entropy gradient at the output.
	last := deltas[nLayers]
	for o := range last {
		t := 0.0
		if o == y {
			t = 1
		}
		last[o] = out[o] - t
	}
	for l := nLayers - 1; l >= 0; l-- {
		in, outN := m.sizes[l], m.sizes[l+1]
		w := m.weights[l]
		delta := deltas[l+1]
		prev := acts[l]
		for o := 0; o < outN; o++ {
			d := delta[o]
			if d == 0 {
				continue
			}
			gb[l][o] += d
			row := gw[l][o*in : (o+1)*in]
			for i, v := range prev {
				if v != 0 {
					row[i] += d * v
				}
			}
		}
		if l > 0 {
			down := deltas[l]
			for i := 0; i < in; i++ {
				if prev[i] <= 0 { // ReLU derivative
					down[i] = 0
					continue
				}
				s := 0.0
				for o := 0; o < outN; o++ {
					s += w[o*in+i] * delta[o]
				}
				down[i] = s
			}
		}
	}
	return loss
}

// Proba implements Classifier.
func (m *DNN) Proba(x []float64) [2]float64 {
	if !m.fitted {
		return [2]float64{0.5, 0.5}
	}
	acts := make([][]float64, len(m.sizes))
	for l, s := range m.sizes {
		acts[l] = make([]float64, s)
	}
	out := m.forward(x, acts)
	return [2]float64{out[0], out[1]}
}
