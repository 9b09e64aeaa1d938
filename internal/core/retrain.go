package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"alarmverify/internal/ml"
	"alarmverify/internal/modelreg"
	"alarmverify/internal/risk"
)

// This file closes the paper's §4.1 training loop at runtime: the
// paper trains classifiers "periodically offline, for example once
// per day during idle periods" and ships them to the serving side.
// Here the Retrainer runs that periodic step inside the live service:
// it pulls the recent alarm history plus the operator verdicts the
// /feedback endpoint recorded, fits a candidate model, shadow-
// evaluates it against a holdout, registers admitted candidates in
// the model registry, and hot-swaps the serving Verifier — lock-free,
// while the sharded pipeline keeps verifying.

// ErrNoHistory is returned when a retrain finds too little history to
// fit a candidate on.
var ErrNoHistory = errors.New("core: retrain: not enough history")

// minRetrainHistory is the smallest history a retrain will fit on;
// below this a candidate would be noise.
const minRetrainHistory = 64

// A retrain pulls at most maxRetrainHistory alarms from the history,
// most recent first, and holds out the last holdoutFrac of them for
// the shadow evaluation.
const (
	maxRetrainHistory = 50_000
	holdoutFrac       = 0.2
)

// RetrainerConfig tunes the background retraining loop.
type RetrainerConfig struct {
	// Interval triggers a retrain this long after the previous one
	// (0 disables the timer trigger).
	Interval time.Duration
	// MinFeedback triggers a retrain once this many operator verdicts
	// have accumulated since the previous retrain (0 disables the
	// feedback trigger).
	MinFeedback int
	// Verifier configures candidate training (algorithm, Δt, extras,
	// risk). Its Classifier field is ignored — refitting a shared
	// classifier instance would mutate the model being served; use
	// NewClassifier to control the candidate's budget instead.
	Verifier VerifierConfig
	// NewClassifier, when set, builds each retrain's fresh candidate
	// classifier (defaults to the paper-parameter classifier for
	// Verifier.Algorithm).
	NewClassifier func() (ml.Classifier, error)
}

// RetrainResult summarizes one retrain attempt.
type RetrainResult struct {
	// Swapped reports whether the candidate was admitted and the live
	// model replaced.
	Swapped bool
	// Version is the registry version the admitted candidate was
	// saved as (0 without a registry).
	Version int
	// CandidateAccuracy and LiveAccuracy are the shadow-evaluation
	// accuracies on the shared holdout.
	CandidateAccuracy float64
	LiveAccuracy      float64
	// TrainRecords, FeedbackRecords and HoldoutRecords describe the
	// retrain's data: rows fitted, operator verdicts folded in, rows
	// held out.
	TrainRecords    int
	FeedbackRecords int
	HoldoutRecords  int
}

// RetrainerStats is the loop's cumulative accounting.
type RetrainerStats struct {
	// Attempts counts retrains started, Swaps admitted candidates,
	// Rejected candidates that lost the shadow evaluation.
	Attempts, Swaps, Rejected int
	// LastErr is the most recent retrain error ("" when healthy).
	LastErr string
	// Last is the most recent completed result.
	Last RetrainResult
}

// Retrainer is the background model-lifecycle loop: trigger →
// retrain on history+feedback → shadow-evaluate → register → swap.
type Retrainer struct {
	live    *Verifier
	history *History
	reg     *modelreg.Registry // nil: swap without registering
	cfg     RetrainerConfig

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}

	mu          sync.Mutex
	stats       RetrainerStats
	fbAtRetrain int
}

// NewRetrainer wires the retraining loop around the live verifier.
// reg may be nil: candidates are then swapped without being persisted
// (useful for tests and in-memory experiments).
func NewRetrainer(live *Verifier, history *History, reg *modelreg.Registry, cfg RetrainerConfig) *Retrainer {
	return &Retrainer{
		live:    live,
		history: history,
		reg:     reg,
		cfg:     cfg,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Start launches the background loop. Safe to call once.
func (r *Retrainer) Start() {
	r.startOnce.Do(func() { go r.loop() })
}

// Stop halts the loop and waits for any in-flight retrain to finish.
// Safe to call more than once, and before Start.
func (r *Retrainer) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.startOnce.Do(func() { close(r.done) }) // never started: nothing to wait for
	<-r.done
}

// Stats snapshots the loop's accounting.
func (r *Retrainer) Stats() RetrainerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// retryBackoffMax caps the backoff of the background loop after a
// retrain that failed or whose candidate was rejected.
const retryBackoffMax = 30 * time.Second

// loop polls the two triggers — interval elapsed, feedback threshold
// reached — every Interval/8 (clamped to [10ms, 1s]; 50ms without an
// interval) and retrains when either fires. Neither a failed retrain
// nor a rejected candidate advances the feedback watermark (the
// verdicts still deserve a model trained on them), so both back off
// exponentially from 1s until a swap: without the backoff a persistent
// error — feedback arriving before the history holds enough alarms, a
// full registry disk — or a candidate that keeps losing would re-run a
// full history pull and model fit every tick, starving the serving
// shards.
func (r *Retrainer) loop() {
	defer close(r.done)
	every := 50 * time.Millisecond
	if r.cfg.Interval > 0 {
		every = max(10*time.Millisecond, min(r.cfg.Interval/8, time.Second))
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	last := time.Now()
	var backoff time.Duration
	var notBefore time.Time
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		if time.Now().Before(notBefore) {
			continue
		}
		due := r.cfg.Interval > 0 && time.Since(last) >= r.cfg.Interval
		if !due && r.cfg.MinFeedback > 0 {
			r.mu.Lock()
			seen := r.fbAtRetrain
			r.mu.Unlock()
			due = r.history.FeedbackCount()-seen >= r.cfg.MinFeedback
		}
		if !due {
			continue
		}
		last = time.Now()
		res, err := r.RetrainNow()
		if err != nil {
			r.mu.Lock()
			r.stats.LastErr = err.Error()
			r.mu.Unlock()
		}
		if err != nil || !res.Swapped {
			backoff = min(max(2*backoff, time.Second), retryBackoffMax)
			notBefore = time.Now().Add(backoff)
		} else {
			backoff = 0
			notBefore = time.Time{}
		}
	}
}

// RetrainNow runs one synchronous retrain: pull history + feedback,
// fit a candidate, shadow-evaluate candidate vs live on a shared
// holdout, and — only if the candidate is no worse than live —
// register it and atomically swap it live. Safe to call concurrently
// with serving; concurrent RetrainNow calls are serialized by the
// training cost, not a lock, so callers should avoid overlapping
// them (the background loop never does).
func (r *Retrainer) RetrainNow() (RetrainResult, error) {
	r.mu.Lock()
	r.stats.Attempts++
	r.mu.Unlock()

	alarms, err := r.history.RecentAlarms(maxRetrainHistory)
	if err != nil {
		return RetrainResult{}, err
	}
	if len(alarms) < minRetrainHistory {
		return RetrainResult{}, fmt.Errorf("%w: %d alarms", ErrNoHistory, len(alarms))
	}
	// The feedback watermark is the count BEFORE the verdicts are
	// read: anything recorded after this point may miss this train
	// set, so it must still count toward the next trigger — advancing
	// the watermark to the post-retrain count would silently absorb
	// verdicts that no model was ever trained on.
	fbSeen := r.history.FeedbackCount()
	overrides, err := r.history.FeedbackLabels()
	if err != nil {
		return RetrainResult{}, err
	}

	holdN := int(float64(len(alarms)) * holdoutFrac)
	if holdN < 1 {
		holdN = 1
	}
	train, holdout := alarms[:len(alarms)-holdN], alarms[len(alarms)-holdN:]

	vcfg := r.cfg.Verifier
	vcfg.Classifier = nil
	if vcfg.DeltaT <= 0 {
		// Preserve the serving model's Δt unless explicitly configured,
		// so the lifecycle never silently changes the label heuristic.
		vcfg.DeltaT = r.live.DeltaT()
	}
	if r.cfg.NewClassifier != nil {
		vcfg.Classifier, err = r.cfg.NewClassifier()
		if err != nil {
			return RetrainResult{}, err
		}
	}
	feedbackUsed := 0
	for i := range train {
		if _, ok := overrides[train[i].ID]; ok {
			feedbackUsed++
		}
	}
	candidate, err := TrainWithFeedback(train, overrides, vcfg)
	if err != nil {
		return RetrainResult{}, err
	}

	// Shadow-evaluate both models against ONE ground truth — operator
	// verdicts where present, the candidate's Δt heuristic otherwise.
	// Scoring each model against its own Δt would structurally inflate
	// the candidate (it is judged by the heuristic that generated its
	// training labels while the live model is judged by a different
	// one), letting a genuinely worse model through the gate.
	candCM, err := candidate.snap.Load().evaluate(holdout, overrides, vcfg.DeltaT)
	if err != nil {
		return RetrainResult{}, err
	}
	liveCM, err := r.live.snap.Load().evaluate(holdout, overrides, vcfg.DeltaT)
	if err != nil {
		return RetrainResult{}, err
	}
	res := RetrainResult{
		CandidateAccuracy: candCM.Accuracy(),
		LiveAccuracy:      liveCM.Accuracy(),
		TrainRecords:      len(train),
		FeedbackRecords:   feedbackUsed,
		HoldoutRecords:    len(holdout),
	}
	if res.CandidateAccuracy < res.LiveAccuracy {
		// Shadow evaluation lost: keep serving the proven model.
		r.finish(res, fbSeen)
		return res, nil
	}

	if r.reg != nil {
		m, err := SaveToRegistry(r.reg, candidate, candCM, feedbackUsed)
		if err != nil {
			return res, err
		}
		res.Version = m.Version
	} else {
		res.Version = r.live.ModelVersion() + 1
		candidate.withVersion(res.Version)
	}
	r.live.Swap(candidate)
	res.Swapped = true
	r.finish(res, fbSeen)
	return res, nil
}

// finish folds a completed result into the stats. A swap advances the
// feedback watermark to the count observed when this retrain read its
// verdicts, so verdicts that arrived mid-retrain still count toward the
// next trigger; a rejected candidate leaves it, so the verdicts it was
// trained on trigger another attempt once the loop's backoff allows.
func (r *Retrainer) finish(res RetrainResult, fb int) {
	r.mu.Lock()
	if res.Swapped {
		r.stats.Swaps++
		r.fbAtRetrain = fb
	} else {
		r.stats.Rejected++
	}
	r.stats.LastErr = ""
	r.stats.Last = res
	r.mu.Unlock()
}

// SaveToRegistry persists the verifier's current snapshot as the
// next registry version, recording its shadow-evaluation metrics (from
// cm, its confusion matrix on a holdout) and how many operator verdicts
// shaped its train set. The snapshot is
// then stamped with the assigned version (so ModelVersion and /stats
// report the registered identity) — unless a concurrent Swap
// replaced it first, in which case the newer model wins and the
// stamp is dropped.
func SaveToRegistry(reg *modelreg.Registry, v *Verifier, cm ml.ConfusionMatrix, feedbackRecords int) (modelreg.Manifest, error) {
	s := v.snap.Load()
	m, err := reg.Save(s.model, s.enc, modelreg.Manifest{
		TrainRecords:    s.trainStats.TrainRecords,
		FeedbackRecords: feedbackRecords,
		Features:        s.trainStats.Features,
		DeltaTMS:        s.deltaT.Milliseconds(),
		NumExtras:       s.numExtras,
		HasRisk:         s.hasRisk,
		RiskKind:        int(s.riskKind),
		Holdout: modelreg.HoldoutMetrics{Records: cm.Total(), Accuracy: cm.Accuracy(),
			Precision: cm.Precision(), Recall: cm.Recall(), F1: cm.F1()},
	})
	if err != nil {
		return m, err
	}
	v.withVersion(m.Version)
	return m, nil
}

// LoadFromRegistry rebuilds a serving verifier from a registry
// version (version <= 0 loads the latest). Models trained with the
// hybrid risk feature need the rebuilt risk model; passing nil for
// such a model is an error.
func LoadFromRegistry(reg *modelreg.Registry, version int, riskModel *risk.Model) (*Verifier, error) {
	var (
		model ml.Classifier
		enc   *ml.SchemaEncoder
		m     modelreg.Manifest
		err   error
	)
	if version <= 0 {
		model, enc, m, err = reg.LoadLatest()
	} else {
		model, enc, m, err = reg.Load(version)
	}
	if err != nil {
		return nil, err
	}
	if m.HasRisk && riskModel == nil {
		return nil, fmt.Errorf("core: model v%04d was trained with a risk feature; a risk model is required to load it", m.Version)
	}
	s := &modelSnapshot{
		model:     model,
		enc:       enc,
		numExtras: m.NumExtras,
		hasRisk:   m.HasRisk,
		riskKind:  risk.Kind(m.RiskKind),
		deltaT:    time.Duration(m.DeltaTMS) * time.Millisecond,
		trainStats: TrainStats{
			Algorithm:    Algorithm(m.Algorithm),
			TrainRecords: m.TrainRecords,
			Features:     m.Features,
		},
		version: m.Version,
	}
	if m.HasRisk {
		s.riskModel = riskModel
	}
	return newVerifier(s)
}
