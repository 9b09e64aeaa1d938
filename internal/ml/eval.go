package ml

import "fmt"

// ConfusionMatrix counts binary classification outcomes. "Positive"
// is class 1 (true alarm).
type ConfusionMatrix struct {
	TP, FP, TN, FN int
}

// Evaluate compiles c against l, scores rows with it and tallies the
// outcomes against their labels y. A row is predicted true when
// P(class 1) >= P(class 0).
func Evaluate(c Classifier, l *RowLayout, rows *SparseRows, y []int) (ConfusionMatrix, error) {
	if len(y) != rows.Len() {
		return ConfusionMatrix{}, fmt.Errorf("%w: %d rows vs %d labels", ErrShape, rows.Len(), len(y))
	}
	m, err := Compile(c, l)
	if err != nil {
		return ConfusionMatrix{}, err
	}
	probs := make([][2]float64, rows.Len())
	m.ProbSparse(rows, probs)
	var cm ConfusionMatrix
	for i, p := range probs {
		switch pred := p[1] >= p[0]; {
		case pred && y[i] == 1:
			cm.TP++
		case pred && y[i] == 0:
			cm.FP++
		case !pred && y[i] == 0:
			cm.TN++
		default:
			cm.FN++
		}
	}
	return cm, nil
}

// Total returns the number of evaluated samples.
func (cm ConfusionMatrix) Total() int { return cm.TP + cm.FP + cm.TN + cm.FN }

// Accuracy returns the fraction of correct verifications — the
// paper's headline metric (§5.3.1).
func (cm ConfusionMatrix) Accuracy() float64 {
	t := cm.Total()
	if t == 0 {
		return 0
	}
	return float64(cm.TP+cm.TN) / float64(t)
}

// Precision returns TP / (TP + FP).
func (cm ConfusionMatrix) Precision() float64 {
	if cm.TP+cm.FP == 0 {
		return 0
	}
	return float64(cm.TP) / float64(cm.TP+cm.FP)
}

// Recall returns TP / (TP + FN) — for alarm verification, the
// fraction of genuinely true alarms the system forwards. This is the
// safety-critical number behind the paper's §6 concern that "even a
// 99% verification accuracy might not be good enough".
func (cm ConfusionMatrix) Recall() float64 {
	if cm.TP+cm.FN == 0 {
		return 0
	}
	return float64(cm.TP) / float64(cm.TP+cm.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (cm ConfusionMatrix) F1() float64 {
	p, r := cm.Precision(), cm.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the matrix compactly.
func (cm ConfusionMatrix) String() string {
	return fmt.Sprintf("acc=%.4f prec=%.4f rec=%.4f f1=%.4f (tp=%d fp=%d tn=%d fn=%d)",
		cm.Accuracy(), cm.Precision(), cm.Recall(), cm.F1(), cm.TP, cm.FP, cm.TN, cm.FN)
}
