// Package core implements the paper's primary contribution: the
// end-to-end alarm-verification service (§4, Figure 2) that combines
// the four components — stream processing (broker + stream), batch
// processing (docstore alarm history), machine learning (ml) and the
// hybrid incident-history risk model (textproc + risk) — into one
// application.
//
// The flow mirrors Figure 3: alarms arrive on the broker stream; each
// micro-batch is deserialized once (and cached), the distinct alarming
// devices are extracted, their alarm histories are summarized as
// histograms, and every alarm is classified true/false with an
// associated confidence that Alarm Receiving Center operators use to
// prioritize.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/dataset"
	"alarmverify/internal/ml"
	"alarmverify/internal/risk"
)

// Algorithm selects one of the paper's four classifiers (§5.3).
type Algorithm string

// The four evaluated algorithms.
const (
	RandomForest         Algorithm = "rf"
	SupportVectorMachine Algorithm = "svm"
	LogisticRegression   Algorithm = "lr"
	DeepNeuralNetwork    Algorithm = "dnn"
)

// Algorithms lists all four in the paper's presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{RandomForest, LogisticRegression, SupportVectorMachine, DeepNeuralNetwork}
}

// ErrUnknownAlgorithm is returned for unrecognized algorithm names.
var ErrUnknownAlgorithm = errors.New("core: unknown algorithm")

// NewClassifier builds a fresh classifier with the paper's published
// hyper-parameters (Tables 3–7).
func NewClassifier(a Algorithm) (ml.Classifier, error) {
	switch a {
	case RandomForest:
		return ml.NewRandomForest(ml.DefaultRandomForestConfig()), nil
	case SupportVectorMachine:
		return ml.NewSVM(ml.DefaultSVMConfig()), nil
	case LogisticRegression:
		return ml.NewLogisticRegression(ml.DefaultLogisticRegressionConfig()), nil
	case DeepNeuralNetwork:
		return ml.NewDNN(ml.DefaultDNNConfig()), nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, a)
	}
}

// VerifierConfig configures offline training of a verifier.
type VerifierConfig struct {
	Algorithm Algorithm
	// Classifier overrides the default-config classifier when set
	// (used by benchmarks to scale training down or up).
	Classifier ml.Classifier
	// DeltaT is the duration threshold of the label heuristic
	// (§5.1.1); the paper's best setting is 1 minute.
	DeltaT time.Duration
	// IncludeExtras keeps sensor-specific features.
	IncludeExtras bool
	// Risk enables the hybrid approach: a-priori risk factors from
	// the incident history are appended as a model feature.
	Risk     *risk.Model
	RiskKind risk.Kind
}

// DefaultVerifierConfig is the paper's headline configuration: random
// forest on all features with Δt = 1 min.
func DefaultVerifierConfig() VerifierConfig {
	return VerifierConfig{
		Algorithm:     RandomForest,
		DeltaT:        time.Minute,
		IncludeExtras: true,
	}
}

// Verifier is the trained verification service: it classifies live
// alarms in real time and reports the confidence operators rely on.
//
// All mutable model state — the classifier, the schema encoder, the
// training summary, Δt — lives in one immutable snapshot behind an
// atomic pointer. Every Verify/VerifyBatchInto call loads the snapshot
// exactly once, so a hot Swap mid-stream is lock-free and each call
// (and each batch) is classified by exactly one model — fields from
// two models can never mix. The zero Verifier has no model; it must
// be produced by Train or LoadFromRegistry, or populated
// via Swap before serving.
type Verifier struct {
	snap atomic.Pointer[modelSnapshot]
}

// modelSnapshot is the immutable serving state of one model version.
// A snapshot is never mutated after publication; hot-swapping
// installs a whole new snapshot.
type modelSnapshot struct {
	model ml.Classifier
	enc   *ml.SchemaEncoder
	// rows and compiled are what serving reads: the alarm → ml.SparseRow
	// encoder bound to enc, and model compiled against its layout. model
	// and enc themselves are kept for the registry.
	rows       *dataset.AlarmEncoder
	compiled   ml.SparseModel
	numExtras  int
	hasRisk    bool
	riskModel  *risk.Model
	riskKind   risk.Kind
	deltaT     time.Duration
	trainStats TrainStats
	// version is the modelreg registry version the snapshot was saved
	// as (0 for unregistered models).
	version int
}

// TrainStats summarizes offline training.
type TrainStats struct {
	Algorithm    Algorithm
	TrainRecords int
	Features     int
	// TrainTime is the whole of Train: labelling, encoding, fitting and
	// compiling the model for serving — what a retrain costs the cores it
	// runs on.
	TrainTime time.Duration
}

// ModelInfo is a consistent view of the live serving model, read from
// a single atomic snapshot — the fields can never mix across a hot
// swap (the /stats contract).
type ModelInfo struct {
	// Stats is the training summary of the serving model.
	Stats TrainStats
	// ModelVersion is the registry version serving traffic (0 when
	// the model was never registered).
	ModelVersion int
	// DeltaT is the label-heuristic threshold the model was trained
	// with.
	DeltaT time.Duration
}

// Train fits a verifier on historical alarms using the duration
// heuristic for labels — the periodic offline step of §4.1 ("a
// classifier trained periodically offline, for example once per
// day").
func Train(history []alarm.Alarm, cfg VerifierConfig) (*Verifier, error) {
	return TrainWithFeedback(history, nil, cfg)
}

// TrainWithFeedback is Train with operator verdicts folded in: for
// every alarm whose ID appears in feedback, the recorded verdict
// overrides the Δt-heuristic label. This is how the live lifecycle
// closes the loop — the heuristic bootstraps the model, operators
// correct it where the heuristic drifts from reality.
func TrainWithFeedback(history []alarm.Alarm, feedback map[int64]alarm.Label, cfg VerifierConfig) (*Verifier, error) {
	start := time.Now()
	if len(history) == 0 {
		return nil, ml.ErrEmptyDataset
	}
	if cfg.DeltaT <= 0 {
		cfg.DeltaT = time.Minute
	}
	labeled := dataset.ToLabeled(history, cfg.DeltaT, cfg.IncludeExtras)
	for i := range labeled {
		if verdict, ok := feedback[history[i].ID]; ok {
			labeled[i].Label = verdict
		}
	}
	if cfg.Risk != nil {
		dataset.AttachRisk(labeled, cfg.Risk, cfg.RiskKind)
	}
	enc, labels, err := dataset.FitEncoder(labeled)
	if err != nil {
		return nil, err
	}
	model := cfg.Classifier
	if model == nil {
		model, err = NewClassifier(cfg.Algorithm)
		if err != nil {
			return nil, err
		}
	} else {
		// A custom classifier defines the algorithm actually served.
		cfg.Algorithm = Algorithm(model.Name())
	}
	s := &modelSnapshot{
		model:     model,
		enc:       enc,
		numExtras: len(labeled[0].Extras),
		hasRisk:   cfg.Risk != nil,
		riskModel: cfg.Risk,
		riskKind:  cfg.RiskKind,
		deltaT:    cfg.DeltaT,
	}
	// The training alarms are encoded the way serving encodes live ones,
	// by the encoder the snapshot keeps, and fitted on in that form.
	if s.rows, err = dataset.NewAlarmEncoder(enc, s.numExtras > 0, s.riskModel, s.riskKind); err != nil {
		return nil, err
	}
	layout := s.rows.Layout()
	var rows ml.SparseRows
	rows.Resize(layout, len(history))
	for i := range history {
		s.rows.Encode(&history[i], rows.Row(i))
	}
	if err := ml.FitRows(model, layout, &rows, labels); err != nil {
		return nil, err
	}
	s.trainStats = TrainStats{
		Algorithm:    cfg.Algorithm,
		TrainRecords: len(history),
		Features:     layout.Width(),
	}
	v, err := newVerifier(s)
	if err != nil {
		return nil, err
	}
	// v has not been handed out yet, so its snapshot can still take the
	// time the compile ended at.
	s.trainStats.TrainTime = time.Since(start)
	return v, nil
}

// newVerifier makes a snapshot servable — binds its encoder to live
// alarms, unless Train already did, and compiles its model against the
// encoder's layout — and wraps it in a verifier. Every snapshot is born
// here (Train, LoadFromRegistry), so a model that does not fit its
// encoder never serves: it fails here with ml.ErrBadModelFile.
func newVerifier(s *modelSnapshot) (*Verifier, error) {
	var err error
	if s.rows == nil {
		if s.rows, err = dataset.NewAlarmEncoder(s.enc, s.numExtras > 0, s.riskModel, s.riskKind); err != nil {
			return nil, err
		}
	}
	if s.compiled, err = ml.Compile(s.model, s.rows.Layout()); err != nil {
		return nil, err
	}
	v := &Verifier{}
	v.snap.Store(s)
	return v, nil
}

// Stats returns the training summary of the live snapshot.
func (v *Verifier) Stats() TrainStats { return v.snap.Load().trainStats }

// DeltaT returns the label-heuristic threshold the live snapshot was
// trained with.
func (v *Verifier) DeltaT() time.Duration { return v.snap.Load().deltaT }

// ModelVersion returns the registry version of the live snapshot
// (0 for unregistered models).
func (v *Verifier) ModelVersion() int { return v.snap.Load().version }

// Info returns a consistent view of the live model from one atomic
// snapshot load.
func (v *Verifier) Info() ModelInfo {
	s := v.snap.Load()
	return ModelInfo{Stats: s.trainStats, ModelVersion: s.version, DeltaT: s.deltaT}
}

// Swap atomically installs nv's current snapshot as v's serving
// model. In-flight Verify/VerifyBatchInto calls finish on the snapshot
// they loaded; subsequent calls pick up the new model — no lock, no
// drained pipeline, no dropped records. nv must not be refitted
// afterwards (snapshots are immutable by contract).
func (v *Verifier) Swap(nv *Verifier) { v.snap.Store(nv.snap.Load()) }

// withVersion republishes the current snapshot stamped with a
// registry version (the model state is shared, not copied). The
// republication is a compare-and-swap: if a concurrent Swap installed
// a different model in the meantime, the stamp is dropped rather
// than clobbering the newer model with the old one.
func (v *Verifier) withVersion(version int) {
	old := v.snap.Load()
	s := *old
	s.version = version
	v.snap.CompareAndSwap(old, &s)
}

// Verify classifies one live alarm and returns the verification with
// its confidence and service latency — a batch of one through
// VerifyBatchInto's path, so the whole call is served by exactly one
// model even if a hot swap lands mid-call.
func (v *Verifier) Verify(a *alarm.Alarm) (alarm.Verification, error) {
	one, out := [1]alarm.Alarm{*a}, [1]alarm.Verification{}
	err := v.VerifyBatchInto(one[:], out[:])
	return out[0], err
}

// batchScratch is one batch's pooled serving state: the sparse rows
// the alarms are encoded into and the probability column the model
// fills — 30 bytes an alarm. Recycled through sync.Pool so steady-state
// batches allocate nothing.
type batchScratch struct {
	rows  ml.SparseRows
	probs [][2]float64
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// VerifyBatchInto classifies a slice of alarms into a caller-provided
// slice (len(out) must be at least len(alarms)), one verification per
// alarm; predictions and probabilities are bit-identical to calling
// Verify per alarm, with LatencyMS reporting the batch's amortized
// per-alarm latency. It is the allocation-free form the pipeline's
// classify workers use to fill disjoint regions of one
// result slice concurrently. The model snapshot is loaded once per
// call: the whole batch is encoded and classified by one model, so a
// concurrent hot swap can never split a batch across two models.
func (v *Verifier) VerifyBatchInto(alarms []alarm.Alarm, out []alarm.Verification) error {
	return v.snap.Load().verifyBatchInto(alarms, out)
}

// verifyBatchInto is the one serving path: every alarm becomes a
// sparse row (dataset.AlarmEncoder) and the compiled model scores the
// batch. No dense feature vector exists on it.
func (s *modelSnapshot) verifyBatchInto(alarms []alarm.Alarm, out []alarm.Verification) error {
	if len(out) < len(alarms) {
		return fmt.Errorf("core: verify batch: %d outputs for %d alarms", len(out), len(alarms))
	}
	n := len(alarms)
	if n == 0 {
		return nil
	}
	start := time.Now()
	sc := batchPool.Get().(*batchScratch)
	sc.rows.Resize(s.rows.Layout(), n)
	if cap(sc.probs) < n {
		sc.probs = make([][2]float64, n)
	}
	sc.probs = sc.probs[:n]
	for i := range alarms {
		s.rows.Encode(&alarms[i], sc.rows.Row(i))
	}
	s.compiled.ProbSparse(&sc.rows, sc.probs)
	perAlarmMS := float64(time.Since(start).Nanoseconds()) / 1e6 / float64(n)
	name := s.model.Name()
	for i := range alarms {
		p := sc.probs[i]
		class, prob := 0, p[0]
		if p[1] >= p[0] {
			class, prob = 1, p[1]
		}
		out[i] = alarm.Verification{
			AlarmID:     alarms[i].ID,
			Predicted:   alarm.Label(class),
			Probability: prob,
			ModelName:   name,
			LatencyMS:   perAlarmMS,
		}
	}
	batchPool.Put(sc)
	return nil
}

// evalChunk is how many alarms an evaluation worker classifies at a
// time: the batch its verdict buffer holds.
const evalChunk = 1024

// EvaluateHoldout measures verification accuracy on held-out alarms
// labelled with the verifier's own Δt heuristic. Classification runs
// through the batched path in bounded chunks.
func (v *Verifier) EvaluateHoldout(holdout []alarm.Alarm) (ml.ConfusionMatrix, error) {
	return v.EvaluateWithFeedback(holdout, nil)
}

// EvaluateWithFeedback is EvaluateHoldout with operator verdicts as
// ground truth where available: for alarms whose ID appears in
// feedback the verdict is the truth, the Δt heuristic covers the
// rest. The snapshot is pinned once for the whole evaluation, so a
// concurrent hot swap cannot mix two models' predictions into one
// confusion matrix.
func (v *Verifier) EvaluateWithFeedback(holdout []alarm.Alarm, feedback map[int64]alarm.Label) (ml.ConfusionMatrix, error) {
	s := v.snap.Load()
	return s.evaluate(holdout, feedback, s.deltaT)
}

// evaluate scores the snapshot against an explicit truth: operator
// verdicts where present, the Δt heuristic at truthDeltaT otherwise.
// truthDeltaT is a parameter — not the snapshot's own Δt — so two
// models trained with different thresholds can be compared against
// one consistent ground truth (the shadow evaluation's requirement).
// The hold-out is scored on every core: workers take evalChunk-alarm
// chunks in turn, each into its own verdict buffer and confusion matrix,
// and the matrices' integer counts are summed, so the result does not
// depend on which worker scored what.
func (s *modelSnapshot) evaluate(holdout []alarm.Alarm, feedback map[int64]alarm.Label, truthDeltaT time.Duration) (ml.ConfusionMatrix, error) {
	chunks := (len(holdout) + evalChunk - 1) / evalChunk
	workers := min(runtime.GOMAXPROCS(0), chunks)
	cms, errs := make([]ml.ConfusionMatrix, workers), make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range cms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vers := make([]alarm.Verification, min(len(holdout), evalChunk))
			for c := int(next.Add(1)) - 1; c < chunks; c = int(next.Add(1)) - 1 {
				chunk := holdout[c*evalChunk : min((c+1)*evalChunk, len(holdout))]
				if errs[w] = s.verifyBatchInto(chunk, vers); errs[w] != nil {
					return
				}
				tally(&cms[w], chunk, vers, feedback, truthDeltaT)
			}
		}()
	}
	wg.Wait()
	var cm ml.ConfusionMatrix
	for w, c := range cms {
		if errs[w] != nil {
			return ml.ConfusionMatrix{}, errs[w]
		}
		cm.TP, cm.FP, cm.TN, cm.FN = cm.TP+c.TP, cm.FP+c.FP, cm.TN+c.TN, cm.FN+c.FN
	}
	return cm, nil
}

// tally adds the verdicts vers on chunk to cm against the truth evaluate
// describes.
func tally(cm *ml.ConfusionMatrix, chunk []alarm.Alarm, vers []alarm.Verification, feedback map[int64]alarm.Label, truthDeltaT time.Duration) {
	for i := range chunk {
		a := &chunk[i]
		truth, ok := feedback[a.ID]
		if !ok {
			truth = alarm.DurationLabel(time.Duration(a.Duration*float64(time.Second)), truthDeltaT)
		}
		switch {
		case vers[i].Predicted == alarm.True && truth == alarm.True:
			cm.TP++
		case vers[i].Predicted == alarm.True && truth == alarm.False:
			cm.FP++
		case vers[i].Predicted == alarm.False && truth == alarm.False:
			cm.TN++
		default:
			cm.FN++
		}
	}
}
