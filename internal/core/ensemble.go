package core

import (
	"fmt"
	"sync"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/ml"
)

// This file implements the two extensions the paper sketches in §2.4:
//
//   - "a majority vote among the different classifiers, providing the
//     overall verification and probability as an aggregate of the
//     information provided by all 4 classifiers" — VotingVerifier.
//   - "the most suitable machine learning algorithm is chosen
//     adaptively based on the performance of the currently used one
//     … we would only require the logic to adaptively choose among
//     these at run-time" — AdaptiveVerifier.

// VotingVerifier aggregates several trained verifiers into one: the
// predicted class is the (probability-weighted) majority and the
// reported confidence is the mean probability assigned to that class.
type VotingVerifier struct {
	verifiers []*Verifier
}

// NewVotingVerifier combines trained verifiers. All verifiers should
// share the same DeltaT labelling so their votes are commensurable.
func NewVotingVerifier(verifiers ...*Verifier) (*VotingVerifier, error) {
	if len(verifiers) == 0 {
		return nil, fmt.Errorf("core: voting verifier needs at least one member")
	}
	dt := verifiers[0].DeltaT()
	for _, v := range verifiers[1:] {
		if v.DeltaT() != dt {
			return nil, fmt.Errorf("core: voting members disagree on delta-t (%v vs %v)", dt, v.DeltaT())
		}
	}
	return &VotingVerifier{verifiers: verifiers}, nil
}

// Members returns the number of member verifiers.
func (e *VotingVerifier) Members() int { return len(e.verifiers) }

// Verify aggregates the members' verifications for one alarm.
func (e *VotingVerifier) Verify(a *alarm.Alarm) (alarm.Verification, error) {
	start := time.Now()
	var sumTrue float64
	for _, v := range e.verifiers {
		ver, err := v.Verify(a)
		if err != nil {
			return alarm.Verification{}, err
		}
		pTrue := ver.Probability
		if ver.Predicted == alarm.False {
			pTrue = 1 - ver.Probability
		}
		sumTrue += pTrue
	}
	meanTrue := sumTrue / float64(len(e.verifiers))
	out := alarm.Verification{
		AlarmID:   a.ID,
		ModelName: "vote",
		LatencyMS: float64(time.Since(start).Nanoseconds()) / 1e6,
	}
	if meanTrue >= 0.5 {
		out.Predicted = alarm.True
		out.Probability = meanTrue
	} else {
		out.Predicted = alarm.False
		out.Probability = 1 - meanTrue
	}
	return out, nil
}

// VerifyBatch aggregates the members' batched verifications for a
// whole micro-batch: each member classifies the batch through its
// vectorized path once, and the per-alarm vote accumulation follows
// member order exactly as Verify does, so the aggregate predictions
// and probabilities are bit-identical to the per-alarm path.
func (e *VotingVerifier) VerifyBatch(alarms []alarm.Alarm) ([]alarm.Verification, error) {
	start := time.Now()
	n := len(alarms)
	out := make([]alarm.Verification, n)
	if n == 0 {
		return out, nil
	}
	sums := make([]float64, n)
	buf := make([]alarm.Verification, n)
	for _, v := range e.verifiers {
		if err := v.VerifyBatchInto(alarms, buf); err != nil {
			return nil, err
		}
		for i := range buf {
			pTrue := buf[i].Probability
			if buf[i].Predicted == alarm.False {
				pTrue = 1 - buf[i].Probability
			}
			sums[i] += pTrue
		}
	}
	perAlarmMS := float64(time.Since(start).Nanoseconds()) / 1e6 / float64(n)
	for i := range out {
		meanTrue := sums[i] / float64(len(e.verifiers))
		out[i] = alarm.Verification{
			AlarmID:   alarms[i].ID,
			ModelName: "vote",
			LatencyMS: perAlarmMS,
		}
		if meanTrue >= 0.5 {
			out[i].Predicted = alarm.True
			out[i].Probability = meanTrue
		} else {
			out[i].Predicted = alarm.False
			out[i].Probability = 1 - meanTrue
		}
	}
	return out, nil
}

// EvaluateHoldout measures ensemble accuracy against the members'
// shared Δt heuristic.
func (e *VotingVerifier) EvaluateHoldout(holdout []alarm.Alarm) (ml.ConfusionMatrix, error) {
	var cm ml.ConfusionMatrix
	dt := e.verifiers[0].DeltaT()
	for i := range holdout {
		a := &holdout[i]
		ver, err := e.Verify(a)
		if err != nil {
			return cm, err
		}
		truth := alarm.DurationLabel(time.Duration(a.Duration*float64(time.Second)), dt)
		switch {
		case ver.Predicted == alarm.True && truth == alarm.True:
			cm.TP++
		case ver.Predicted == alarm.True && truth == alarm.False:
			cm.FP++
		case ver.Predicted == alarm.False && truth == alarm.False:
			cm.TN++
		default:
			cm.FN++
		}
	}
	return cm, nil
}

// AdaptiveVerifier serves one "active" verifier at a time and tracks
// the rolling accuracy of every member on recent feedback (alarms
// whose truth became known once their duration was observed). When
// the active member's rolling accuracy falls measurably behind the
// best member, the adaptive verifier switches — the runtime selection
// logic the paper names as future work.
type AdaptiveVerifier struct {
	mu      sync.Mutex
	members []*Verifier
	names   []string
	active  int
	window  int
	// ring buffers of 0/1 correctness per member.
	hits   [][]byte
	cursor int
	filled int
	// Margin a challenger must lead by before a switch (hysteresis).
	Margin float64
	// Switches counts how many times the active member changed.
	Switches int
}

// NewAdaptiveVerifier creates the runtime selector over trained
// members. window is the feedback window size (e.g. 500 recent
// alarms).
func NewAdaptiveVerifier(window int, members ...*Verifier) (*AdaptiveVerifier, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: adaptive verifier needs at least one member")
	}
	if window < 10 {
		window = 10
	}
	a := &AdaptiveVerifier{
		members: members,
		window:  window,
		hits:    make([][]byte, len(members)),
		Margin:  0.02,
	}
	for i, m := range members {
		a.hits[i] = make([]byte, window)
		a.names = append(a.names, fmt.Sprintf("%s/%d", m.Stats().Algorithm, i))
	}
	return a, nil
}

// Active returns the index of the currently serving member.
func (a *AdaptiveVerifier) Active() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active
}

// Verify serves the alarm with the active member.
func (a *AdaptiveVerifier) Verify(al *alarm.Alarm) (alarm.Verification, error) {
	a.mu.Lock()
	v := a.members[a.active]
	a.mu.Unlock()
	return v.Verify(al)
}

// VerifyBatch serves a whole micro-batch with the active member's
// vectorized path. The member is snapshotted once, so every alarm of
// the batch is classified by the same model even if feedback switches
// the active member concurrently.
func (a *AdaptiveVerifier) VerifyBatch(alarms []alarm.Alarm) ([]alarm.Verification, error) {
	a.mu.Lock()
	v := a.members[a.active]
	a.mu.Unlock()
	return v.VerifyBatch(alarms)
}

// Feedback reports the eventual ground truth for an alarm; every
// member is scored on it (so challengers keep learning their rolling
// accuracy even while inactive), and the active member is re-elected
// if it has fallen behind.
func (a *AdaptiveVerifier) Feedback(al *alarm.Alarm, truth alarm.Label) error {
	preds := make([]alarm.Label, len(a.members))
	for i, m := range a.members {
		ver, err := m.Verify(al)
		if err != nil {
			return err
		}
		preds[i] = ver.Predicted
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.members {
		hit := byte(0)
		if preds[i] == truth {
			hit = 1
		}
		a.hits[i][a.cursor] = hit
	}
	a.cursor = (a.cursor + 1) % a.window
	if a.filled < a.window {
		a.filled++
	}
	// Re-elect once we have enough evidence.
	if a.filled < a.window/2 {
		return nil
	}
	best, bestAcc := a.active, a.rollingLocked(a.active)
	for i := range a.members {
		if acc := a.rollingLocked(i); acc > bestAcc+a.Margin {
			best, bestAcc = i, acc
		}
	}
	if best != a.active {
		a.active = best
		a.Switches++
	}
	return nil
}

// MemberName returns a display label for one member ("rf/0").
func (a *AdaptiveVerifier) MemberName(member int) string {
	if member < 0 || member >= len(a.names) {
		return ""
	}
	return a.names[member]
}

// RollingAccuracy returns the member's accuracy over the feedback
// window.
func (a *AdaptiveVerifier) RollingAccuracy(member int) float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rollingLocked(member)
}

func (a *AdaptiveVerifier) rollingLocked(member int) float64 {
	if a.filled == 0 {
		return 0
	}
	sum := 0
	for i := 0; i < a.filled; i++ {
		sum += int(a.hits[member][i])
	}
	return float64(sum) / float64(a.filled)
}
