package core

import (
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/dataset"
	"alarmverify/internal/ml"
)

// harnessVerifier trains the forest the benchmark harness serves
// (bench/env.go's full scale: seed 1, 1 200 devices, 12 000 training
// alarms, 50 trees × depth 30, about a thousand features) and returns
// it with the alarms the harness replays.
func harnessVerifier(tb testing.TB) (*Verifier, []alarm.Alarm) {
	tb.Helper()
	cfg := dataset.DefaultSitasysConfig()
	cfg.NumAlarms, cfg.NumDevices, cfg.Seed = 48000, 1200, 1
	alarms := dataset.GenerateSitasys(dataset.NewWorld(1), cfg)
	rf := ml.DefaultRandomForestConfig()
	rf.Seed = 1
	vcfg := DefaultVerifierConfig()
	vcfg.Classifier = ml.NewRandomForest(rf)
	v, err := Train(alarms[:12000], vcfg)
	if err != nil {
		tb.Fatal(err)
	}
	return v, alarms[18000:]
}

// BenchmarkVerifyBatchSplit is where a classify batch's time goes, at
// the harness's scale: verifyBatchInto's two halves — alarms into
// sparse rows, rows through the compiled forest — timed apart over
// 512-alarm batches of the replay, beside the whole call.
func BenchmarkVerifyBatchSplit(b *testing.B) {
	v, replay := harnessVerifier(b)
	s := v.snap.Load()
	const batch = 512
	var rows ml.SparseRows
	rows.Resize(s.rows.Layout(), batch)
	probs := make([][2]float64, batch)
	out := make([]alarm.Verification, batch)
	var encode, walk, whole time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i * batch % (len(replay) - batch)
		alarms := replay[lo : lo+batch]
		t0 := time.Now()
		for j := range alarms {
			s.rows.Encode(&alarms[j], rows.Row(j))
		}
		t1 := time.Now()
		s.compiled.ProbSparse(&rows, probs)
		t2 := time.Now()
		if err := s.verifyBatchInto(alarms, out); err != nil {
			b.Fatal(err)
		}
		encode, walk, whole = encode+t1.Sub(t0), walk+t2.Sub(t1), whole+time.Since(t2)
	}
	perAlarm := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N*batch) }
	b.ReportMetric(perAlarm(encode), "encode-ns/alarm")
	b.ReportMetric(perAlarm(walk), "walk-ns/alarm")
	b.ReportMetric(perAlarm(whole), "verify-ns/alarm")
	b.ReportMetric(0, "ns/op")
}
