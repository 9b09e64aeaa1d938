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

// encodedSet is a labelled set in serving rows.
type encodedSet struct {
	l    *ml.RowLayout
	rows *ml.SparseRows
	y    []int
}

// halves encodes labeled and splits it in two halves on a permutation
// drawn from rng, the way the experiments split their sets.
func halves(t *testing.T, labeled []alarm.LabeledAlarm, rng *rand.Rand) (train, test encodedSet) {
	t.Helper()
	l, rows, y, err := Encode(labeled)
	if err != nil {
		t.Fatal(err)
	}
	idx := rng.Perm(len(y))
	gather := func(idx []int) encodedSet {
		s := encodedSet{l, rows.Gather(idx), make([]int, len(idx))}
		for i, id := range idx {
			s.y[i] = y[id]
		}
		return s
	}
	return gather(idx[:len(y)/2]), gather(idx[len(y)/2:])
}

// fitScore fits c on train and returns its accuracy on test.
func fitScore(t *testing.T, c ml.Classifier, train, test encodedSet) float64 {
	t.Helper()
	if err := c.Fit(train.l, train.rows, train.y); err != nil {
		t.Fatal(err)
	}
	cm, err := ml.Evaluate(c, test.l, test.rows, test.y)
	if err != nil {
		t.Fatal(err)
	}
	return cm.Accuracy()
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
	labeled := ToLabeled(alarms, time.Minute)
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
	labeled := ToLabeled(alarms, time.Minute)
	if labeled[0].Label != alarm.False || labeled[1].Label != alarm.True {
		t.Errorf("duration heuristic broken: %+v", labeled)
	}
	if labeled[0].HourOfDay != 14 || labeled[1].DayOfWeek != 6 {
		t.Errorf("time features wrong: %+v", labeled)
	}
	if len(labeled[0].Extras) != 2 {
		t.Errorf("extras = %v", labeled[0].Extras)
	}
}

func TestEncodeShapes(t *testing.T) {
	_, alarms := smallSitasys(2000)
	labeled := ToLabeled(alarms, time.Minute)
	l, rows, y, err := Encode(labeled)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2000 || len(y) != 2000 {
		t.Fatalf("rows = %d, labels = %d", rows.Len(), len(y))
	}
	// Every row is one-hot per categorical block: 7 with extras, no
	// risk, each 1 inside its own block.
	if l.Groups() != 7 || l.Nums() != 0 {
		t.Fatalf("layout has %d categorical and %d numeric columns, want 7 and 0", l.Groups(), l.Nums())
	}
	for i := range y {
		act := rows.Row(i).Active
		for g := 1; g < len(act); g++ {
			if act[g] <= act[g-1] {
				t.Fatalf("row %d: columns %v are not one per block", i, act)
			}
		}
		if int(act[len(act)-1]) >= l.Width() {
			t.Fatalf("row %d: column %d past the width %d", i, act[len(act)-1], l.Width())
		}
		if y[i] != int(labeled[i].Label) {
			t.Fatalf("row %d: label %d, want %d", i, y[i], labeled[i].Label)
		}
	}
	if _, _, _, err := Encode(nil); err == nil {
		t.Error("empty encode accepted")
	}
}

func TestEncodeWithRisk(t *testing.T) {
	w, alarms := smallSitasys(1000)
	labeled := ToLabeled(alarms, time.Minute)
	// Risk from a trivial incident model.
	var incidents []textproc.Incident
	for _, p := range w.Gaz.Places()[:20] {
		incidents = append(incidents, textproc.Incident{Location: p.Name, Topic: textproc.TopicFire})
	}
	model := risk.BuildModel(w.Gaz, incidents)
	AttachRisk(labeled, model, risk.Normalized)
	l, rows, _, err := Encode(labeled)
	if err != nil {
		t.Fatal(err)
	}
	if l.Nums() != 1 {
		t.Fatalf("layout has %d numeric columns, want the risk", l.Nums())
	}
	for i := range labeled {
		r := rows.Row(i).Nums[0]
		if r != labeled[i].Risk {
			t.Fatalf("row %d: risk cell %g, the record's %g", i, r, labeled[i].Risk)
		}
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

	trainF, testF := halves(t, ToLabeled(alarms, time.Minute), rng)

	rfCfg := ml.DefaultRandomForestConfig()
	rfCfg.NumTrees = 40
	rfCfg.MaxDepth = 25
	rfAcc := fitScore(t, ml.NewRandomForest(rfCfg), trainF, testF)

	lrCfg := ml.DefaultLogisticRegressionConfig()
	lrCfg.MaxIterations = 250
	lrAcc := fitScore(t, ml.NewLogisticRegression(lrCfg), trainF, testF)

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
	generic := ToLabeled(alarms, time.Minute)
	for i := range generic {
		generic[i].Extras = nil
	}
	trainG, testG := halves(t, generic, rand.New(rand.NewSource(99)))
	rfGenAcc := fitScore(t, ml.NewRandomForest(rfCfg), trainG, testG)
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
		train, test := halves(t, ToLabeled(alarms, dt), rand.New(rand.NewSource(3)))
		accs = append(accs, fitScore(t, ml.NewRandomForest(rfCfg), train, test))
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
	train, test := halves(t, LFBToLabeled(GenerateLFB(cfg)), rand.New(rand.NewSource(5)))
	svmCfg := ml.DefaultSVMConfig()
	svmCfg.MaxIterations = 600
	acc := fitScore(t, ml.NewSVM(svmCfg), train, test)
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
	train, test := halves(t, SFToLabeled(usable), rand.New(rand.NewSource(5)))
	rfCfg := ml.DefaultRandomForestConfig()
	rfCfg.NumTrees = 25
	rfCfg.MaxDepth = 14
	acc := fitScore(t, ml.NewRandomForest(rfCfg), train, test)
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
