package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"alarmverify/internal/ml"
	"alarmverify/internal/risk"
)

// verifierState is the persisted form of a trained verifier. The
// hybrid risk model is not embedded (it is rebuilt from the incident
// history, which lives in the document store); LoadVerifier re-binds
// it.
type verifierState struct {
	NumExtras  int             `json:"numExtras"`
	HasRisk    bool            `json:"hasRisk"`
	RiskKind   int             `json:"riskKind"`
	DeltaTMS   int64           `json:"deltaTMs"`
	Stats      TrainStats      `json:"stats"`
	Encoder    json.RawMessage `json:"encoder"`
	Classifier json.RawMessage `json:"classifier"`
}

// Save writes the verifier (classifier + feature encoder + metadata)
// so the nightly-trained model can be shipped to serving instances
// (§4.1).
func (v *Verifier) Save(w io.Writer) error {
	s := v.snap.Load()
	var encBuf bytes.Buffer
	if err := s.enc.Save(&encBuf); err != nil {
		return err
	}
	var clsBuf bytes.Buffer
	if err := ml.SaveClassifier(&clsBuf, s.model); err != nil {
		return err
	}
	st := verifierState{
		NumExtras:  s.numExtras,
		HasRisk:    s.hasRisk,
		RiskKind:   int(s.riskKind),
		DeltaTMS:   s.deltaT.Milliseconds(),
		Stats:      s.trainStats,
		Encoder:    json.RawMessage(bytes.TrimSpace(encBuf.Bytes())),
		Classifier: json.RawMessage(bytes.TrimSpace(clsBuf.Bytes())),
	}
	return json.NewEncoder(w).Encode(st)
}

// LoadVerifier reads a verifier written by Save. Verifiers trained
// with the hybrid risk feature require the rebuilt risk model;
// passing nil for such a verifier is an error.
func LoadVerifier(r io.Reader, riskModel *risk.Model) (*Verifier, error) {
	var st verifierState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("%w: %v", ml.ErrBadModelFile, err)
	}
	if st.HasRisk && riskModel == nil {
		return nil, fmt.Errorf("core: verifier was trained with a risk feature; a risk model is required to load it")
	}
	enc, err := ml.LoadEncoder(bytes.NewReader(st.Encoder))
	if err != nil {
		return nil, err
	}
	model, err := ml.LoadClassifier(bytes.NewReader(st.Classifier))
	if err != nil {
		return nil, err
	}
	s := &modelSnapshot{
		model:      model,
		enc:        enc,
		numExtras:  st.NumExtras,
		hasRisk:    st.HasRisk,
		riskKind:   risk.Kind(st.RiskKind),
		deltaT:     time.Duration(st.DeltaTMS) * time.Millisecond,
		trainStats: st.Stats,
	}
	if st.HasRisk {
		s.riskModel = riskModel
	}
	return newVerifier(s)
}
