package ml

import (
	"math"
	"math/rand"
)

// SVMConfig mirrors the paper's Table 4: a linear-kernel SVM trained
// with mini-batch SGD under a squared-L2 update.
type SVMConfig struct {
	MaxIterations     int     // Table 4: 2,000
	StepSize          float64 // Table 4: 1.0
	MiniBatchFraction float64 // Table 4: 0.2
	L2                float64 // Table 4: 1e-2 (regularization parameter)
	Seed              int64
}

// DefaultSVMConfig returns the paper's Table 4 parameters.
func DefaultSVMConfig() SVMConfig {
	return SVMConfig{
		MaxIterations:     2000,
		StepSize:          1.0,
		MiniBatchFraction: 0.2,
		L2:                1e-2,
		Seed:              1,
	}
}

// SVM is a linear support-vector machine trained with hinge-loss
// mini-batch SGD (step size decaying as stepSize/√t, matching Spark's
// SVMWithSGD which the paper used). Because a raw SVM only yields a
// margin, Proba applies Platt scaling fitted on the training margins,
// preserving the paper's requirement that every classifier reports a
// confidence (§6.1).
type SVM struct {
	Config SVMConfig

	weights []float64
	bias    float64
	// Platt scaling parameters: P(y=1|m) = sigmoid(a*m + b).
	plattA, plattB float64
	fitted         bool
}

// NewSVM creates an SVM with the given config.
func NewSVM(cfg SVMConfig) *SVM { return &SVM{Config: cfg} }

// Name implements Classifier.
func (m *SVM) Name() string { return "svm" }

// margin returns w·x + b.
func (m *SVM) margin(x []float64) float64 {
	z := m.bias
	for j, v := range x {
		if j < len(m.weights) && v != 0 {
			z += m.weights[j] * v
		}
	}
	return z
}

// Fit implements Classifier.
func (m *SVM) Fit(d *Dataset) error {
	if d == nil || d.Len() == 0 {
		return ErrEmptyDataset
	}
	rng := rand.New(rand.NewSource(m.Config.Seed))
	w := d.Width()
	m.weights = make([]float64, w)
	m.bias = 0

	batch := int(m.Config.MiniBatchFraction * float64(d.Len()))
	if batch < 1 {
		batch = 1
	}
	grad := make([]float64, w)
	// Polyak tail averaging: the served hyperplane is the mean of the
	// iterates over the last quarter of training, which stabilizes
	// SGD under the decaying step schedule.
	avgStart := m.Config.MaxIterations * 3 / 4
	avgW := make([]float64, w)
	var avgB float64
	avgN := 0
	for t := 1; t <= m.Config.MaxIterations; t++ {
		for j := range grad {
			grad[j] = 0
		}
		gradB := 0.0
		for k := 0; k < batch; k++ {
			i := rng.Intn(d.Len())
			yi := 2.0*float64(d.Y[i]) - 1.0 // {-1, +1}
			if yi*m.margin(d.X[i]) < 1 {
				for j, v := range d.X[i] {
					if v != 0 {
						grad[j] -= yi * v
					}
				}
				gradB -= yi
			}
		}
		lr := m.Config.StepSize / math.Sqrt(float64(t))
		nb := float64(batch)
		for j := range m.weights {
			m.weights[j] -= lr * (grad[j]/nb + m.Config.L2*m.weights[j])
		}
		m.bias -= lr * gradB / nb
		if t > avgStart {
			for j := range avgW {
				avgW[j] += m.weights[j]
			}
			avgB += m.bias
			avgN++
		}
	}
	if avgN > 0 {
		for j := range m.weights {
			m.weights[j] = avgW[j] / float64(avgN)
		}
		m.bias = avgB / float64(avgN)
	}
	m.fitPlatt(d)
	m.fitted = true
	return nil
}

// fitPlatt calibrates P(y=1|margin) with a tiny logistic fit on the
// training margins.
func (m *SVM) fitPlatt(d *Dataset) {
	a, b := 1.0, 0.0
	const iters = 200
	n := float64(d.Len())
	for it := 0; it < iters; it++ {
		var ga, gb float64
		for i, row := range d.X {
			mi := m.margin(row)
			p := sigmoid(a*mi + b)
			err := p - float64(d.Y[i])
			ga += err * mi
			gb += err
		}
		a -= 0.5 * ga / n
		b -= 0.5 * gb / n
	}
	m.plattA, m.plattB = a, b
}

// Proba implements Classifier.
func (m *SVM) Proba(x []float64) [2]float64 {
	if !m.fitted {
		return [2]float64{0.5, 0.5}
	}
	p := sigmoid(m.plattA*m.margin(x) + m.plattB)
	return [2]float64{1 - p, p}
}
