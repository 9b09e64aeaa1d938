// Package ml implements the machine-learning substrate of the alarm
// pipeline — the role Spark ML (Random Forest, SVM, Logistic
// Regression) and DeepLearning4J/Theano (Deep Neural Network) play in
// the paper (§5.3).
//
// All four classifiers follow the paper's hyper-parameters (Tables
// 3–7) and expose calibrated class probabilities, because the paper's
// use case is a decision-support system: "not only is the verification
// important, but also the probability (confidence) associated with it"
// (§6.1). There is one representation of a labelled set: serving rows
// (SparseRows) of a SchemaEncoder's layout. Every classifier fits on
// them, and Compile turns a fitted one into the form that scores them,
// so the paper's experiments train and score the way the service does.
// The package is dataset-agnostic; encoding alarms into rows lives with
// the dataset loaders.
package ml

import (
	"errors"
	"fmt"
)

// Common errors.
var (
	ErrEmptyDataset = errors.New("ml: empty dataset")
	ErrShape        = errors.New("ml: inconsistent dataset shape")
	ErrNotFitted    = errors.New("ml: model not fitted")
)

// Classifier is a binary classifier with calibrated probabilities. A
// fitted one scores rows through Compile.
type Classifier interface {
	// Name identifies the algorithm ("rf", "svm", "lr", "dnn").
	Name() string
	// Fit trains on rows of layout l labelled y (0 = false alarm, 1 =
	// true alarm).
	Fit(l *RowLayout, rows *SparseRows, y []int) error
}

// checkFit is the check every Fit makes before it trains: there are
// rows, one label each, every label is 0 or 1, the rows have the
// layout's shape and no row names a column past its width.
func checkFit(l *RowLayout, rows *SparseRows, y []int) error {
	if rows == nil || rows.n == 0 {
		return ErrEmptyDataset
	}
	if len(y) != rows.n {
		return fmt.Errorf("%w: %d rows vs %d labels", ErrShape, rows.n, len(y))
	}
	for i, label := range y {
		if label != 0 && label != 1 {
			return fmt.Errorf("%w: label %d at row %d (want 0/1)", ErrShape, label, i)
		}
	}
	if l == nil {
		return fmt.Errorf("%w: no layout", ErrShape)
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
	return nil
}
