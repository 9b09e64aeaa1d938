package ml

import (
	"math"
)

// LogisticRegressionConfig mirrors the paper's Table 5.
type LogisticRegressionConfig struct {
	MaxIterations int     // Table 5: 500
	Tolerance     float64 // Table 5: 1e-6 (convergence tolerance)
	LearningRate  float64 // full-batch gradient step size
	L2            float64 // ridge penalty
}

// DefaultLogisticRegressionConfig returns the paper's published
// parameters (Table 5) with sensible optimizer defaults for the
// unpublished knobs.
func DefaultLogisticRegressionConfig() LogisticRegressionConfig {
	return LogisticRegressionConfig{
		MaxIterations: 500,
		Tolerance:     1e-6,
		LearningRate:  0.5,
		L2:            1e-4,
	}
}

// LogisticRegression is a binary logistic-regression classifier
// trained by full-batch gradient descent with a convergence-tolerance
// stop — the cheapest of the paper's four algorithms ("the smallest
// training time is required for Logistic Regression", §5.3.3).
type LogisticRegression struct {
	Config LogisticRegressionConfig

	weights []float64
	bias    float64
	// Iterations reports how many optimizer steps Fit actually ran.
	Iterations int
	fitted     bool
}

// NewLogisticRegression creates a classifier with the given config.
func NewLogisticRegression(cfg LogisticRegressionConfig) *LogisticRegression {
	return &LogisticRegression{Config: cfg}
}

// Name implements Classifier.
func (m *LogisticRegression) Name() string { return "lr" }

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Fit implements Classifier.
func (m *LogisticRegression) Fit(d *Dataset) error {
	if d == nil || d.Len() == 0 {
		return ErrEmptyDataset
	}
	w := d.Width()
	m.weights = make([]float64, w)
	m.bias = 0
	n := float64(d.Len())
	grad := make([]float64, w)

	prevLoss := math.Inf(1)
	for iter := 0; iter < m.Config.MaxIterations; iter++ {
		for j := range grad {
			grad[j] = 0
		}
		gradB := 0.0
		loss := 0.0
		for i, row := range d.X {
			z := m.bias
			for j, v := range row {
				z += m.weights[j] * v
			}
			p := sigmoid(z)
			y := float64(d.Y[i])
			err := p - y
			for j, v := range row {
				if v != 0 {
					grad[j] += err * v
				}
			}
			gradB += err
			// Numerically-safe cross entropy.
			if y > 0.5 {
				loss += -math.Log(math.Max(p, 1e-12))
			} else {
				loss += -math.Log(math.Max(1-p, 1e-12))
			}
		}
		loss /= n
		lr := m.Config.LearningRate
		for j := range m.weights {
			g := grad[j]/n + m.Config.L2*m.weights[j]
			m.weights[j] -= lr * g
			loss += 0.5 * m.Config.L2 * m.weights[j] * m.weights[j]
		}
		m.bias -= lr * gradB / n
		m.Iterations = iter + 1
		if math.Abs(prevLoss-loss) < m.Config.Tolerance {
			break
		}
		prevLoss = loss
	}
	m.fitted = true
	return nil
}

// Proba implements Classifier.
func (m *LogisticRegression) Proba(x []float64) [2]float64 {
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
}
