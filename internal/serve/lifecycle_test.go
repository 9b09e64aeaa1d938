package serve

import (
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
	"alarmverify/internal/ml"
)

// TestFeedbackRetrainHotSwapLive is the end-to-end lifecycle proof:
// while the sharded service is verifying a live stream, operator
// feedback accumulates, the background retrainer fits a corrected
// candidate, wins the shadow evaluation and hot-swaps it into the
// shared verifier — and the service loses nothing: zero errored
// shards, every replayed alarm verified exactly once, and the swapped
// model demonstrably changes predictions.
func TestFeedbackRetrainHotSwapLive(t *testing.T) {
	_, stream := testSetup(t)
	smallRF := func() (ml.Classifier, error) {
		cfg := ml.DefaultRandomForestConfig()
		cfg.NumTrees = 12
		cfg.MaxDepth = 12
		return ml.NewRandomForest(cfg), nil
	}

	// A deliberately stale model: trained on a thin slice, before the
	// "drift" the operators will correct.
	vcfg := core.DefaultVerifierConfig()
	vcfg.Classifier, _ = smallRF()
	live, err := core.Train(stream[:600], vcfg)
	if err != nil {
		t.Fatal(err)
	}
	replay := stream[600:]

	// The operators' systematic correction: every intrusion alarm is
	// genuinely true, whatever the Δt heuristic says.
	probe := make([]alarm.Alarm, 0, 256)
	for i := len(replay) - 1; i >= 0 && len(probe) < 256; i-- {
		if replay[i].Type == alarm.TypeIntrusion {
			probe = append(probe, replay[i])
		}
	}
	if len(probe) < 32 {
		t.Fatalf("only %d intrusion probes in replay", len(probe))
	}
	preVers := make([]alarm.Verification, len(probe))
	if err := live.VerifyBatchInto(probe, preVers); err != nil {
		t.Fatal(err)
	}
	preTrue := 0
	for _, v := range preVers {
		if v.Predicted == alarm.True {
			preTrue++
		}
	}

	b := loadedBroker(t, replay, 4)
	defer b.Close()
	history, err := core.NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(b, "alarms", "lifecycle", live, history, testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	rt := core.NewRetrainer(live, history, nil, core.RetrainerConfig{
		MinFeedback:   200,
		CheckEvery:    5 * time.Millisecond,
		Verifier:      core.DefaultVerifierConfig(),
		NewClassifier: smallRF,
	})
	defer rt.Stop()

	svc.Start()
	// Operators file verdicts while the stream is being served, once
	// the history holds the first half of it. The correction is
	// systematic, so it covers recent alarms too — the retrainer's
	// shadow holdout (the most recent slice) must see the same ground
	// truth the train set learned, or the stale model rightly wins the
	// evaluation. So the retrainer starts only once every verdict is
	// filed: a retrain that began after the first 200 would hold out a
	// slice no verdict covers yet, could lose, and would then absorb
	// the verdicts it read into its watermark, leaving too few to
	// trigger another.
	waitFor(t, 30*time.Second, "first half of the stream stored", func() bool {
		return history.Len() >= len(replay)/2
	})
	fed := 0
	for i := range replay {
		if replay[i].Type == alarm.TypeIntrusion {
			history.RecordFeedback(core.Feedback{
				AlarmID:   replay[i].ID,
				DeviceMAC: replay[i].DeviceMAC,
				Verdict:   alarm.True,
				At:        replay[i].Timestamp,
			})
			fed++
		}
	}
	if fed < 200 {
		t.Fatalf("only %d feedback verdicts available, trigger needs 200", fed)
	}
	rt.Start()

	deadline := time.Now().Add(30 * time.Second)
	for rt.Stats().Swaps < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for feedback-triggered hot swap: history %d, retrainer %+v",
				history.Len(), rt.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitFor(t, 30*time.Second, "stream fully drained", func() bool {
		lag, err := svc.Lag()
		return err == nil && lag == 0
	})
	svc.Stop()

	// Zero errored: no shard halted, no retrain error latched.
	if err := svc.Err(); err != nil {
		t.Fatalf("shard errored across the swap: %v", err)
	}
	if st := rt.Stats(); st.LastErr != "" {
		t.Fatalf("retrainer error: %s", st.LastErr)
	}
	// Zero dropped: every replayed alarm verified exactly once.
	verified := svc.Verified()
	if len(verified) != len(replay) || uniqueIDs(verified) != len(replay) {
		t.Fatalf("verified %d (%d unique) of %d replayed",
			len(verified), uniqueIDs(verified), len(replay))
	}
	for i := range verified {
		if verified[i].ModelName == "" || verified[i].Probability < 0.5 || verified[i].Probability > 1 {
			t.Fatalf("verification %d malformed: %+v", i, verified[i])
		}
	}
	// The swap is visible: the live verifier serves the new version…
	if live.ModelVersion() < 1 {
		t.Fatalf("live model version = %d after swap", live.ModelVersion())
	}
	// …and the corrected model predicts measurably differently: the
	// operators marked every intrusion true, so the retrained model
	// must flag strictly more of the intrusion probes than the stale
	// one did.
	postVers := make([]alarm.Verification, len(probe))
	if err := live.VerifyBatchInto(probe, postVers); err != nil {
		t.Fatal(err)
	}
	postTrue := 0
	for _, v := range postVers {
		if v.Predicted == alarm.True {
			postTrue++
		}
	}
	if postTrue <= preTrue {
		t.Fatalf("swap did not change predictions: %d/%d true before, %d/%d after",
			preTrue, len(probe), postTrue, len(probe))
	}
}
