package ml

import (
	"fmt"
	"math/rand"
	"sort"
)

// GridPoint is one hyper-parameter assignment: parameter name →
// value.
type GridPoint map[string]float64

// GridResult records the cross-validated score of one grid point.
type GridResult struct {
	Point GridPoint
	Score float64 // mean validation accuracy
}

// GridSearch evaluates every combination of the parameter grid with
// k-fold cross-validation over rows of layout l labelled y and returns
// results sorted best-first. The paper tunes all four algorithms this
// way: "We used grid search to tune the hyper parameters" (§5.3.2).
//
// build converts a grid point into a fresh classifier.
func GridSearch(l *RowLayout, rows *SparseRows, y []int, grid map[string][]float64, k int,
	build func(GridPoint) Classifier, seed int64) ([]GridResult, error) {
	if rows == nil || rows.Len() == 0 {
		return nil, ErrEmptyDataset
	}
	if len(y) != rows.Len() {
		return nil, fmt.Errorf("%w: %d rows vs %d labels", ErrShape, rows.Len(), len(y))
	}
	names := make([]string, 0, len(grid))
	for n := range grid {
		names = append(names, n)
	}
	sort.Strings(names)
	points := expandGrid(names, grid)
	if len(points) == 0 {
		return nil, fmt.Errorf("ml: empty parameter grid")
	}
	folds := foldsOf(rows, y, k, rand.New(rand.NewSource(seed)))
	results := make([]GridResult, 0, len(points))
	for _, pt := range points {
		var sum float64
		for _, f := range folds {
			c := build(pt)
			if err := c.Fit(l, f.train, f.trainY); err != nil {
				return nil, fmt.Errorf("ml: grid point %v: %w", pt, err)
			}
			cm, err := Evaluate(c, l, f.val, f.valY)
			if err != nil {
				return nil, fmt.Errorf("ml: grid point %v: %w", pt, err)
			}
			sum += cm.Accuracy()
		}
		results = append(results, GridResult{Point: pt, Score: sum / float64(len(folds))})
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].Score > results[j].Score })
	return results, nil
}

// fold is one cross-validation fold: the rows trained on and the rows
// scored, with their labels.
type fold struct {
	train, val   *SparseRows
	trainY, valY []int
}

// foldsOf deals the rows, shuffled with rng, into k folds (at least 2):
// the i-th shuffled row validates fold i mod k and trains the others.
// Each side keeps the shuffled order.
func foldsOf(rows *SparseRows, y []int, k int, rng *rand.Rand) []fold {
	if k < 2 {
		k = 2
	}
	idx := rng.Perm(len(y))
	out := make([]fold, k)
	for f := range out {
		var trainIdx, valIdx []int
		for i, id := range idx {
			if i%k == f {
				valIdx = append(valIdx, id)
			} else {
				trainIdx = append(trainIdx, id)
			}
		}
		out[f] = fold{
			train: rows.Gather(trainIdx), trainY: gatherLabels(y, trainIdx),
			val: rows.Gather(valIdx), valY: gatherLabels(y, valIdx),
		}
	}
	return out
}

// gatherLabels returns the labels idx names, in that order.
func gatherLabels(y []int, idx []int) []int {
	out := make([]int, len(idx))
	for i, id := range idx {
		out[i] = y[id]
	}
	return out
}

func expandGrid(names []string, grid map[string][]float64) []GridPoint {
	points := []GridPoint{{}}
	for _, name := range names {
		vals := grid[name]
		next := make([]GridPoint, 0, len(points)*len(vals))
		for _, p := range points {
			for _, v := range vals {
				np := make(GridPoint, len(p)+1)
				for k, pv := range p {
					np[k] = pv
				}
				np[name] = v
				next = append(next, np)
			}
		}
		points = next
	}
	return points
}
