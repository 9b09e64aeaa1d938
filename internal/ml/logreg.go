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
func (m *LogisticRegression) Fit(l *RowLayout, rows *SparseRows, y []int) error {
	if err := checkFit(l, rows, y); err != nil {
		return err
	}
	m.weights = make([]float64, l.width)
	m.bias = 0
	n := float64(rows.Len())
	grad := make([]float64, l.width)

	prevLoss := math.Inf(1)
	for iter := 0; iter < m.Config.MaxIterations; iter++ {
		clear(grad)
		gradB := 0.0
		loss := 0.0
		for i := range y {
			row := rows.Row(i)
			p := sigmoid(sparseDot(m.bias, m.weights, row, l.numCols))
			yi := float64(y[i])
			err := p - yi
			sparseAxpy(grad, err, row, l.numCols)
			gradB += err
			// Numerically-safe cross entropy.
			if yi > 0.5 {
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
