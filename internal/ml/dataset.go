// Package ml implements the machine-learning substrate of the alarm
// pipeline — the role Spark ML (Random Forest, SVM, Logistic
// Regression) and DeepLearning4J/Theano (Deep Neural Network) play in
// the paper (§5.3).
//
// All four classifiers follow the paper's hyper-parameters (Tables
// 3–7) and expose calibrated class probabilities, because the paper's
// use case is a decision-support system: "not only is the verification
// important, but also the probability (confidence) associated with it"
// (§6.1). The package is dataset-agnostic; encoding alarms into
// feature vectors lives with the dataset loaders.
package ml

import (
	"errors"
	"fmt"
	"math/rand"
)

// Common errors.
var (
	ErrEmptyDataset = errors.New("ml: empty dataset")
	ErrShape        = errors.New("ml: inconsistent dataset shape")
	ErrNotFitted    = errors.New("ml: model not fitted")
)

// Dataset is a dense design matrix with binary labels (0 = false
// alarm, 1 = true alarm) — what the experiments fit and score on. The
// service's training builds none: it fits on the alarms encoded as
// serving rows (FitRows), and a forest reads those straight into its
// training view; only a classifier of another kind is handed the dense
// matrix, built from the rows for its Fit.
type Dataset struct {
	X            [][]float64
	Y            []int
	FeatureNames []string
}

// NewDataset validates and wraps a design matrix.
func NewDataset(x [][]float64, y []int, names []string) (*Dataset, error) {
	if len(x) == 0 {
		return nil, ErrEmptyDataset
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("%w: %d rows vs %d labels", ErrShape, len(x), len(y))
	}
	w := len(x[0])
	for i, row := range x {
		if len(row) != w {
			return nil, fmt.Errorf("%w: row %d has %d features, want %d", ErrShape, i, len(row), w)
		}
	}
	if names != nil && len(names) != w {
		return nil, fmt.Errorf("%w: %d feature names for width %d", ErrShape, len(names), w)
	}
	for i, label := range y {
		if label != 0 && label != 1 {
			return nil, fmt.Errorf("%w: label %d at row %d (want 0/1)", ErrShape, label, i)
		}
	}
	return &Dataset{X: x, Y: y, FeatureNames: names}, nil
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// Width returns the number of features.
func (d *Dataset) Width() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Split partitions the dataset into a training set with trainFrac of
// the rows and a test set with the remainder, after shuffling with
// rng. The paper uses a 50/50 split (§5.1.1).
func (d *Dataset) Split(trainFrac float64, rng *rand.Rand) (train, test *Dataset) {
	idx := rng.Perm(len(d.X))
	n := int(float64(len(d.X)) * trainFrac)
	if n < 1 {
		n = 1
	}
	if n >= len(d.X) {
		n = len(d.X) - 1
	}
	mk := func(ids []int) *Dataset {
		x := make([][]float64, len(ids))
		y := make([]int, len(ids))
		for i, id := range ids {
			x[i] = d.X[id]
			y[i] = d.Y[id]
		}
		return &Dataset{X: x, Y: y, FeatureNames: d.FeatureNames}
	}
	return mk(idx[:n]), mk(idx[n:])
}

// Subset returns a view of the given row indices.
func (d *Dataset) Subset(rows []int) *Dataset {
	x := make([][]float64, len(rows))
	y := make([]int, len(rows))
	for i, r := range rows {
		x[i] = d.X[r]
		y[i] = d.Y[r]
	}
	return &Dataset{X: x, Y: y, FeatureNames: d.FeatureNames}
}

// Folds splits the dataset into k folds for cross-validation and
// returns, per fold, the train and validation subsets.
func (d *Dataset) Folds(k int, rng *rand.Rand) []struct{ Train, Val *Dataset } {
	if k < 2 {
		k = 2
	}
	idx := rng.Perm(len(d.X))
	out := make([]struct{ Train, Val *Dataset }, k)
	for f := 0; f < k; f++ {
		var trainIdx, valIdx []int
		for i, id := range idx {
			if i%k == f {
				valIdx = append(valIdx, id)
			} else {
				trainIdx = append(trainIdx, id)
			}
		}
		out[f].Train = d.Subset(trainIdx)
		out[f].Val = d.Subset(valIdx)
	}
	return out
}

// Classifier is a binary classifier with calibrated probabilities.
type Classifier interface {
	// Name identifies the algorithm ("rf", "svm", "lr", "dnn").
	Name() string
	// Fit trains on d.
	Fit(d *Dataset) error
	// Proba returns [P(class 0), P(class 1)] for one feature vector.
	Proba(x []float64) [2]float64
}

// Predict returns the argmax class for one feature vector.
func Predict(c Classifier, x []float64) int {
	p := c.Proba(x)
	if p[1] >= p[0] {
		return 1
	}
	return 0
}
