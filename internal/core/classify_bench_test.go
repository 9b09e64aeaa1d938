package core

import (
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/dataset"
	"alarmverify/internal/ml"
)

// harnessAlarms generates the alarms of the benchmark harness's full
// scale (bench/env.go: seed 1, 48 000 alarms over 1 200 devices); the
// first 12 000 train, the last 30 000 are replayed.
func harnessAlarms() []alarm.Alarm {
	cfg := dataset.DefaultSitasysConfig()
	cfg.NumAlarms, cfg.NumDevices, cfg.Seed = 48000, 1200, 1
	return dataset.GenerateSitasys(dataset.NewWorld(1), cfg)
}

// harnessTrain trains the forest the benchmark harness serves (50 trees
// × depth 30 over about a thousand features) on train.
func harnessTrain(tb testing.TB, train []alarm.Alarm) *Verifier {
	tb.Helper()
	rf := ml.DefaultRandomForestConfig()
	rf.Seed = 1
	vcfg := DefaultVerifierConfig()
	vcfg.Classifier = ml.NewRandomForest(rf)
	v, err := Train(train, vcfg)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// retrainAlarms is the retrainer's default window at the scale the
// benchmark harness's devices would fill it: 50 000 alarms
// (maxRetrainHistory) over 8 000 devices, seed 1; the first 40 000
// train, the rest are the 20 % hold-out.
func retrainAlarms() []alarm.Alarm {
	cfg := dataset.DefaultSitasysConfig()
	cfg.NumAlarms, cfg.NumDevices, cfg.Seed = 50000, 8000, 1
	return dataset.GenerateSitasys(dataset.NewWorld(1), cfg)
}

// BenchmarkTrain is the whole of Train — label, encode, fit, compile —
// on the harness's training set (harness: 12 000 alarms, the span the
// harness reports as ml.train_s) and on a retrain window's (retrain:
// 40 000 alarms, about 2 900 features).
func BenchmarkTrain(b *testing.B) {
	for _, bc := range []struct {
		name  string
		train func() []alarm.Alarm
	}{
		{"harness", func() []alarm.Alarm { return harnessAlarms()[:12000] }},
		{"retrain", func() []alarm.Alarm { return retrainAlarms()[:40000] }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			train := bc.train()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				harnessTrain(b, train)
			}
		})
	}
}

// BenchmarkVerifyBatchSplit is where a classify batch's time goes, at
// the harness's scale: verifyBatchInto's two halves — alarms into
// sparse rows, rows through the compiled forest — timed apart over
// 512-alarm batches of the replay, beside the whole call.
func BenchmarkVerifyBatchSplit(b *testing.B) {
	all := harnessAlarms()
	v, replay := harnessTrain(b, all[:12000]), all[18000:]
	s := v.snap.Load()
	const batch = 512
	var rows ml.SparseRows
	rows.Resize(s.rows.Layout(), batch)
	probs := make([][2]float64, batch)
	out := make([]alarm.Verification, batch)
	var encode, walk, whole time.Duration
	var sc batchScratch
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
		if err := s.verifyBatchInto(alarms, out, &sc); err != nil {
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
