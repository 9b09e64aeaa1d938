package dataset

import (
	"math/rand"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/ml"
	"alarmverify/internal/risk"
	"alarmverify/internal/textproc"
)

// testWorld builds a small country so tests stay fast.
func testWorld() *World {
	gaz := risk.NewGazetteer(risk.GazetteerConfig{
		NumPlaces:      300,
		NumBigCities:   8,
		MaxZIPsPerCity: 5,
		Seed:           7,
	})
	return NewWorldWith(gaz, 7)
}

func smallSitasys(n int) (*World, []alarm.Alarm) {
	w := testWorld()
	cfg := DefaultSitasysConfig()
	cfg.NumAlarms = n
	cfg.NumDevices = 400
	cfg.PayloadBytes = 0
	return w, GenerateSitasys(w, cfg)
}

func TestSitasysGeneratorShape(t *testing.T) {
	w, alarms := smallSitasys(5000)
	_ = w
	if len(alarms) != 5000 {
		t.Fatalf("generated %d alarms", len(alarms))
	}
	start := time.Date(2015, 10, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 7, 0).Add(24 * time.Hour) // hour-skew may push past span slightly
	for i, a := range alarms {
		if a.ID != int64(i+1) {
			t.Fatalf("IDs not sequential at %d", i)
		}
		if i > 0 && a.Timestamp.Before(alarms[i-1].Timestamp) {
			t.Fatal("alarms not time-ordered")
		}
		if a.Timestamp.Before(start) || a.Timestamp.After(end) {
			t.Fatalf("timestamp %v outside window", a.Timestamp)
		}
		if a.Duration < 0 {
			t.Fatal("negative duration")
		}
		if a.ZIP == "" || a.DeviceMAC == "" || a.SensorType == "" {
			t.Fatalf("incomplete alarm %+v", a)
		}
	}
	// Roughly balanced classes at Δt = 1 min (the paper's data is in
	// "roughly equal proportions of true and false alarms").
	labeled := ToLabeled(alarms, time.Minute, true)
	pos := 0
	for _, la := range labeled {
		pos += int(la.Label)
	}
	rate := float64(pos) / float64(len(labeled))
	if rate < 0.35 || rate > 0.65 {
		t.Errorf("true-alarm rate = %.2f, want roughly balanced", rate)
	}
}

func TestSitasysDeterminism(t *testing.T) {
	_, a := smallSitasys(500)
	_, b := smallSitasys(500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("alarm %d differs between identical runs", i)
		}
	}
}

func TestToLabeledHeuristic(t *testing.T) {
	alarms := []alarm.Alarm{
		{Duration: 30, Type: alarm.TypeFire, ObjectType: alarm.ObjectPublic,
			ZIP: "1000", Timestamp: time.Date(2016, 1, 5, 14, 0, 0, 0, time.UTC)},
		{Duration: 120, Type: alarm.TypeIntrusion, ObjectType: alarm.ObjectResidential,
			ZIP: "1001", Timestamp: time.Date(2016, 1, 9, 3, 0, 0, 0, time.UTC)},
	}
	labeled := ToLabeled(alarms, time.Minute, false)
	if labeled[0].Label != alarm.False || labeled[1].Label != alarm.True {
		t.Errorf("duration heuristic broken: %+v", labeled)
	}
	if labeled[0].HourOfDay != 14 || labeled[1].DayOfWeek != 6 {
		t.Errorf("time features wrong: %+v", labeled)
	}
	if len(labeled[0].Extras) != 0 {
		t.Error("extras present without includeExtras")
	}
	withExtras := ToLabeled(alarms, time.Minute, true)
	if len(withExtras[0].Extras) != 2 {
		t.Errorf("extras = %v", withExtras[0].Extras)
	}
}

func TestEncodeShapes(t *testing.T) {
	_, alarms := smallSitasys(2000)
	labeled := ToLabeled(alarms, time.Minute, true)
	ds, enc, err := Encode(labeled)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2000 {
		t.Fatalf("rows = %d", ds.Len())
	}
	if ds.Width() != enc.Width() {
		t.Fatalf("width mismatch %d vs %d", ds.Width(), enc.Width())
	}
	// Every row is one-hot per categorical block: row sums equal the
	// number of categorical columns (7 with extras, no risk).
	for i, row := range ds.X {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if sum != 7 {
			t.Fatalf("row %d sums to %v, want 7", i, sum)
		}
	}
	if _, _, err := Encode(nil); err == nil {
		t.Error("empty encode accepted")
	}
}

func TestEncodeWithRisk(t *testing.T) {
	w, alarms := smallSitasys(1000)
	labeled := ToLabeled(alarms, time.Minute, false)
	// Risk from a trivial incident model.
	var incidents []textproc.Incident
	for _, p := range w.Gaz.Places()[:20] {
		incidents = append(incidents, textproc.Incident{Location: p.Name, Topic: textproc.TopicFire})
	}
	model := risk.BuildModel(w.Gaz, incidents)
	AttachRisk(labeled, model, risk.Normalized)
	ds, enc, err := Encode(labeled)
	if err != nil {
		t.Fatal(err)
	}
	names := enc.FeatureNames()
	if names[len(names)-1] != "risk" {
		t.Errorf("last feature = %s, want risk", names[len(names)-1])
	}
	for _, row := range ds.X {
		r := row[len(row)-1]
		if r < 0 || r > 1 {
			t.Errorf("risk value %g out of range", r)
		}
	}
}

// TestSitasysAccuracyShape is the core calibration test for Figures
// 9–10: with sensor-specific features, the non-linear models must
// reach ≈90 % and clearly beat logistic regression; without them,
// accuracy must drop by several points.
func TestSitasysAccuracyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test trains four models")
	}
	_, alarms := smallSitasys(24_000)
	rng := rand.New(rand.NewSource(99))

	full := ToLabeled(alarms, time.Minute, true)
	dsFull, _, err := Encode(full)
	if err != nil {
		t.Fatal(err)
	}
	trainF, testF := dsFull.Split(0.5, rng)

	rfCfg := ml.DefaultRandomForestConfig()
	rfCfg.NumTrees = 40
	rfCfg.MaxDepth = 25
	rf := ml.NewRandomForest(rfCfg)
	if err := rf.Fit(trainF); err != nil {
		t.Fatal(err)
	}
	rfAcc := ml.Accuracy(rf, testF)

	lrCfg := ml.DefaultLogisticRegressionConfig()
	lrCfg.MaxIterations = 250
	lr := ml.NewLogisticRegression(lrCfg)
	if err := lr.Fit(trainF); err != nil {
		t.Fatal(err)
	}
	lrAcc := ml.Accuracy(lr, testF)

	if rfAcc < 0.85 {
		t.Errorf("RF accuracy %.3f, want ≥ 0.85 (paper: >90%% at full scale)", rfAcc)
	}
	if rfAcc < lrAcc+0.01 {
		t.Errorf("RF (%.3f) should clearly beat LR (%.3f) via interaction features", rfAcc, lrAcc)
	}
	if lrAcc < 0.78 {
		t.Errorf("LR accuracy %.3f unreasonably low", lrAcc)
	}

	// Generic features only → several points lower (transfer story).
	generic := ToLabeled(alarms, time.Minute, false)
	dsGen, _, err := Encode(generic)
	if err != nil {
		t.Fatal(err)
	}
	trainG, testG := dsGen.Split(0.5, rand.New(rand.NewSource(99)))
	rfG := ml.NewRandomForest(rfCfg)
	if err := rfG.Fit(trainG); err != nil {
		t.Fatal(err)
	}
	rfGenAcc := ml.Accuracy(rfG, testG)
	if rfGenAcc > rfAcc-0.015 {
		t.Errorf("generic features (%.3f) should trail sensor-specific (%.3f)", rfGenAcc, rfAcc)
	}
}

// TestDeltaTStability checks the Figure 9 property: accuracy is
// stable (within a few points) across Δt from 1 to 10 minutes.
func TestDeltaTStability(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several models")
	}
	_, alarms := smallSitasys(16_000)
	rfCfg := ml.DefaultRandomForestConfig()
	rfCfg.NumTrees = 25
	rfCfg.MaxDepth = 20
	var accs []float64
	for _, dt := range []time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute} {
		labeled := ToLabeled(alarms, dt, true)
		ds, _, err := Encode(labeled)
		if err != nil {
			t.Fatal(err)
		}
		train, test := ds.Split(0.5, rand.New(rand.NewSource(3)))
		rf := ml.NewRandomForest(rfCfg)
		if err := rf.Fit(train); err != nil {
			t.Fatal(err)
		}
		accs = append(accs, ml.Accuracy(rf, test))
	}
	for i, a := range accs {
		if a < 0.80 {
			t.Errorf("Δt index %d accuracy %.3f too low", i, a)
		}
	}
	spread := accs[0] - accs[len(accs)-1]
	if spread < -0.03 || spread > 0.08 {
		t.Errorf("accuracy should be stable and best at Δt=1min: %v", accs)
	}
}

func TestLFBGeneratorShape(t *testing.T) {
	cfg := DefaultLFBConfig()
	cfg.NumIncidents = 20_000
	recs := GenerateLFB(cfg)
	if len(recs) != 20_000 {
		t.Fatalf("records = %d", len(recs))
	}
	perYear, falseRatio := LFBStats(recs)
	if len(perYear) != 8 {
		t.Errorf("years = %d, want 8 (2009-2016)", len(perYear))
	}
	if falseRatio < 0.40 || falseRatio > 0.56 {
		t.Errorf("false ratio = %.3f, want ≈0.48 (Figure 6)", falseRatio)
	}
	for _, st := range perYear {
		if st.Fire+st.SpecialService+st.FalseAlarm == 0 {
			t.Errorf("year %d empty", st.Year)
		}
	}
}

func TestLFBAccuracyBand(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	cfg := DefaultLFBConfig()
	cfg.NumIncidents = 20_000
	labeled := LFBToLabeled(GenerateLFB(cfg))
	ds, _, err := Encode(labeled)
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.5, rand.New(rand.NewSource(5)))
	svmCfg := ml.DefaultSVMConfig()
	svmCfg.MaxIterations = 600
	svm := ml.NewSVM(svmCfg)
	if err := svm.Fit(train); err != nil {
		t.Fatal(err)
	}
	acc := ml.Accuracy(svm, test)
	if acc < 0.78 || acc > 0.92 {
		t.Errorf("LFB SVM accuracy %.3f outside the ≈85%% band", acc)
	}
}

func TestSFQualityProfile(t *testing.T) {
	cfg := DefaultSFConfig()
	cfg.TotalRecords = 200_000
	recs := GenerateSF(cfg)
	st := sfStats(recs)
	if frac := float64(st.OtherLabel) / float64(st.Total); frac < 0.5 {
		t.Errorf("'Other' disposition fraction = %.2f, want > 0.5 (§5.1.3)", frac)
	}
	if frac := float64(st.Medical) / float64(st.Total); frac < 0.45 {
		t.Errorf("medical fraction = %.2f, want > 0.45", frac)
	}
	usableFrac := float64(st.Usable) / float64(st.Total)
	// Paper: 12K usable of 4.3M ≈ 0.28 %; allow 0.05–1.5 %.
	if usableFrac < 0.0005 || usableFrac > 0.015 {
		t.Errorf("usable fraction = %.4f, want tiny", usableFrac)
	}
	usable := SFUsable(recs)
	if len(usable) != st.Usable {
		t.Errorf("SFUsable = %d, stats say %d", len(usable), st.Usable)
	}
	labeled := SFToLabeled(usable)
	for _, la := range labeled {
		if la.PropertyType != "unknown" {
			t.Error("SF must not expose a property type")
		}
	}
}

func TestSFAccuracyBand(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	cfg := DefaultSFConfig()
	cfg.TotalRecords = 1_500_000 // yields a usable subset in the paper's 12K range
	usable := SFUsable(GenerateSF(cfg))
	if len(usable) < 3_000 {
		t.Fatalf("usable subset too small: %d", len(usable))
	}
	ds, _, err := Encode(SFToLabeled(usable))
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.5, rand.New(rand.NewSource(5)))
	rfCfg := ml.DefaultRandomForestConfig()
	rfCfg.NumTrees = 25
	rfCfg.MaxDepth = 14
	rf := ml.NewRandomForest(rfCfg)
	if err := rf.Fit(train); err != nil {
		t.Fatal(err)
	}
	acc := ml.Accuracy(rf, test)
	if acc < 0.72 || acc > 0.90 {
		t.Errorf("SF RF accuracy %.3f outside the ≈80%% band", acc)
	}
}

func TestIncidentReportsCorpus(t *testing.T) {
	w := testWorld()
	cfg := DefaultIncidentConfig()
	cfg.NumReports = 1_500
	cfg.NumLocations = 120
	reports := GenerateIncidentReports(w, cfg)
	if len(reports) <= cfg.NumReports {
		t.Fatalf("reports = %d, want > %d (noise included)", len(reports), cfg.NumReports)
	}
	pipeline := textproc.NewPipeline(w.Gaz.Names())
	incidents, st := pipeline.Process(reports)
	if st.Relevant < cfg.NumReports*9/10 {
		t.Errorf("relevant = %d of %d planted", st.Relevant, cfg.NumReports)
	}
	if st.Relevant > cfg.NumReports*11/10 {
		t.Errorf("noise leaked through the topic filter: %d relevant", st.Relevant)
	}
	langs := map[textproc.Language]int{}
	locations := map[string]bool{}
	for _, inc := range incidents {
		langs[inc.Language]++
		locations[inc.Location] = true
		if inc.Date.IsZero() {
			t.Error("incident without date")
		}
	}
	total := len(incidents)
	deFrac := float64(langs[textproc.German]) / float64(total)
	frFrac := float64(langs[textproc.French]) / float64(total)
	if deFrac < 0.44 || deFrac > 0.64 {
		t.Errorf("German fraction = %.2f, want ≈0.54", deFrac)
	}
	if frFrac < 0.20 || frFrac > 0.40 {
		t.Errorf("French fraction = %.2f, want ≈0.30", frFrac)
	}
	if len(locations) < 60 || len(locations) > 120 {
		t.Errorf("distinct locations = %d, want ≤ %d and substantial", len(locations), cfg.NumLocations)
	}
}

func TestIncidentReportsCorrelateWithRisk(t *testing.T) {
	w := testWorld()
	cfg := DefaultIncidentConfig()
	cfg.NumReports = 3_000
	cfg.NumLocations = 150
	reports := GenerateIncidentReports(w, cfg)
	pipeline := textproc.NewPipeline(w.Gaz.Names())
	incidents, _ := pipeline.Process(reports)
	model := risk.BuildModel(w.Gaz, incidents)
	// Average latent risk of covered places must exceed the average
	// of uncovered places: reports flow to risky locations.
	var covSum, covN, uncovSum, uncovN float64
	for _, p := range w.Gaz.Places() {
		if model.IncidentCount(p.Name) > 0 {
			covSum += w.PlaceRisk(p.Name)
			covN++
		} else {
			uncovSum += w.PlaceRisk(p.Name)
			uncovN++
		}
	}
	if covN == 0 || uncovN == 0 {
		t.Skip("degenerate coverage")
	}
	if covSum/covN <= uncovSum/uncovN {
		t.Errorf("covered avg risk %.3f ≤ uncovered %.3f; reports must concentrate on risky places",
			covSum/covN, uncovSum/uncovN)
	}
}

// sfQualityStats summarizes the data-quality story of §5.1.3.
type sfQualityStats struct {
	Total      int
	OtherLabel int // disposition "Other" (unusable)
	Medical    int
	AlarmFire  int // alarm + fire call types, any label
	NoMerit    int // explicit false alarms
	Usable     int // alarm/fire with a definitive label
}

// sfStats tabulates the quality profile of a raw dump.
func sfStats(recs []SFRecord) sfQualityStats {
	var st sfQualityStats
	st.Total = len(recs)
	for _, r := range recs {
		if r.CallFinalDisposition == "Other" {
			st.OtherLabel++
		}
		if r.CallType == "Medical Incident" {
			st.Medical++
		}
		if sfIsAlarmOrFire(r.CallType) {
			st.AlarmFire++
			if r.CallFinalDisposition != "Other" {
				st.Usable++
			}
		}
		if r.CallFinalDisposition == "No Merit" {
			st.NoMerit++
		}
	}
	return st
}
