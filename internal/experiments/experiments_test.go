package experiments

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
)

// tinyScale keeps unit tests fast; the shape assertions here are the
// coarse ones (who wins, what dominates), with finer calibration
// covered in internal/dataset.
func tinyScale() Scale {
	s := SmallScale()
	s.Name = "tiny"
	s.SitasysAlarms = 8_000
	s.SitasysDevices = 300
	s.LFBIncidents = 6_000
	s.SFRecords = 400_000
	s.IncidentReports = 600
	s.NumPlaces = 200
	s.NumBigCities = 6
	s.IncidentPlaces = 80
	s.RFTrees = 16
	s.RFDepth = 16
	s.SVMIters = 200
	s.LRIters = 80
	s.DNNEpochs = 8
	s.StreamAlarms = 8_000
	s.Partitions = 4
	return s
}

// checkMLRows holds the deterministic cells of one paper row set at
// tinyScale to its section of testdata/mlrows.golden: the lines there
// that start with section and a space, in order. A float is written in
// full (strconv 'g', -1), so a changed accuracy is a changed line.
func checkMLRows(t *testing.T, section string, got []string) {
	t.Helper()
	data, err := os.ReadFile("testdata/mlrows.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, section+" ") {
			want = append(want, line)
		}
	}
	for i := range got {
		got[i] = section + " " + got[i]
	}
	if !slices.Equal(got, want) {
		t.Errorf("%s rows differ from testdata/mlrows.golden:\ngot:\n%s\nwant:\n%s",
			section, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// g formats a float the way mlrows.golden holds it.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "medium", "paper", ""} {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("galactic"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestEnvCachesDatasets(t *testing.T) {
	env := NewEnv(tinyScale())
	a1 := env.Alarms()
	a2 := env.Alarms()
	if &a1[0] != &a2[0] {
		t.Error("alarms regenerated between calls")
	}
	i1 := env.Incidents()
	i2 := env.Incidents()
	if len(i1) == 0 || len(i1) != len(i2) {
		t.Errorf("incident caching broken: %d vs %d", len(i1), len(i2))
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains many models")
	}
	env := NewEnv(tinyScale())
	deltas := []time.Duration{time.Minute, 10 * time.Minute}
	results, err := Fig9(env, deltas)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(deltas)*4 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Accuracy < 0.6 || r.Accuracy > 1 {
			t.Errorf("%s @ %v accuracy %.3f out of band", r.Algorithm, r.DeltaT, r.Accuracy)
		}
	}
	out := RenderFig9(results)
	if !strings.Contains(out, "delta_t") || !strings.Contains(out, "rf") {
		t.Errorf("render missing columns:\n%s", out)
	}
	var rows []string
	for _, r := range results {
		rows = append(rows, fmt.Sprintf("%v %s %s", r.DeltaT, r.Algorithm, g(r.Accuracy)))
	}
	checkMLRows(t, "fig9", rows)
}

func TestFig10AndTable8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 12 models")
	}
	env := NewEnv(tinyScale())
	results, err := Fig10AndTable8(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 {
		t.Fatalf("cells = %d, want 12", len(results))
	}
	get := func(d DatasetName, a core.Algorithm) Fig10Result {
		for _, r := range results {
			if r.Dataset == d && r.Algorithm == a {
				return r
			}
		}
		t.Fatalf("missing cell %s/%s", d, a)
		return Fig10Result{}
	}
	// Shape: Sitasys RF beats SF RF (more features, more data).
	if get(Sitasys, core.RandomForest).Accuracy <= get(SanFrancisco, core.RandomForest).Accuracy {
		t.Errorf("Sitasys should beat SF: %.3f vs %.3f",
			get(Sitasys, core.RandomForest).Accuracy,
			get(SanFrancisco, core.RandomForest).Accuracy)
	}
	// Table 8 shape: the DNN trains no faster than LR on Sitasys; SF
	// trains much faster than LFB (tiny usable subset). The forest is
	// not in the ordering: it trained slower than LR only while it
	// scanned the row-major matrix a feature at a time (EXPERIMENTS.md).
	lr := get(Sitasys, core.LogisticRegression).TrainTime
	if tt := get(Sitasys, core.DeepNeuralNetwork).TrainTime; tt < lr {
		t.Errorf("%s trained faster (%v) than LR (%v)", core.DeepNeuralNetwork, tt, lr)
	}
	if get(SanFrancisco, core.RandomForest).TrainRows >= get(LondonFire, core.RandomForest).TrainRows {
		t.Error("SF usable subset should be far smaller than LFB")
	}
	if out := RenderTable8(results); !strings.Contains(out, "Table 8") {
		t.Error("render broken")
	}
	var rows []string
	for _, r := range results {
		rows = append(rows, fmt.Sprintf("%s %s %s %d", r.Dataset, r.Algorithm, g(r.Accuracy), r.TrainRows))
	}
	checkMLRows(t, "fig10", rows)
}

func TestTable9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 16+ models")
	}
	env := NewEnv(tinyScale())
	rows, err := Table9(env, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 16 (4 scenarios × 4 treatments)", len(rows))
	}
	counts := map[Scenario]int{}
	for _, r := range rows {
		counts[r.Scenario] = r.NumAlarms
		if r.Accuracy < 0.5 {
			t.Errorf("scenario %s %s accuracy %.3f", r.Scenario, r.Treatment, r.Accuracy)
		}
	}
	// Scenario filters strictly shrink the alarm sets: a ⊇ b, a ⊇ c ⊇ d.
	if !(counts[ScenarioA] > counts[ScenarioB] && counts[ScenarioA] > counts[ScenarioC] &&
		counts[ScenarioC] > counts[ScenarioD]) {
		t.Errorf("scenario sizes wrong: %v", counts)
	}
	if out := RenderTable9(rows); !strings.Contains(out, "baseline") {
		t.Error("render broken")
	}
	var lines []string
	for _, r := range rows {
		lines = append(lines, fmt.Sprintf("%s %s %s %d", r.Scenario, r.Treatment, g(r.Accuracy), r.NumAlarms))
	}
	checkMLRows(t, "table9", lines)
}

func TestTable2AndFig7(t *testing.T) {
	env := NewEnv(tinyScale())
	res, err := Table2(env, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("multi-ZIP city has %d districts", len(res.Rows))
	}
	if res.CityFireTotal+res.CityIntrusionTotal == 0 {
		t.Error("covered city has no incidents")
	}
	if out := RenderTable2(res); !strings.Contains(out, "[unknown]") {
		t.Error("district-level incidents must render as unknown")
	}
	rows := Fig7(env, 8, time.Minute)
	if len(rows) != 8 {
		t.Fatalf("fig7 rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].TrueAlarms > rows[i-1].TrueAlarms {
			t.Error("fig7 not sorted by true alarms")
		}
	}
	// The discrepancy the paper shows: reports are much scarcer than
	// true alarms for the hottest locations.
	if rows[0].Incidents >= rows[0].TrueAlarms {
		t.Errorf("expected report scarcity: %d incidents vs %d alarms",
			rows[0].Incidents, rows[0].TrueAlarms)
	}
}

func TestFig11SerializerShape(t *testing.T) {
	env := NewEnv(tinyScale())
	// Each rate is one wall-clock pass of some tens of milliseconds, and
	// on the producer side most of a record's cost is the copy and the
	// broker append, not the codec, so a GC cycle or a host stall inside
	// the fast codec's pass alone inverts the comparison. Each codec's
	// best producer and best consumer rate over five calls compare what
	// the codecs can do, not the stall (best of three still inverted in
	// 9 of 200 runs beside a concurrent load on two vCPUs).
	const calls = 5
	best := map[string]Fig11Result{}
	for i := 0; i < calls; i++ {
		results, err := Fig11(env)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 2 {
			t.Fatalf("results = %d", len(results))
		}
		for _, r := range results {
			b := best[r.Codec]
			r.ProducerPerSec = max(r.ProducerPerSec, b.ProducerPerSec)
			r.ConsumerPerSec = max(r.ConsumerPerSec, b.ConsumerPerSec)
			best[r.Codec] = r
		}
	}
	reflectRes, fastRes := best["reflect"], best["fast"]
	// The Figure 11 headline: the specialized serializer clearly beats
	// the reflection-based one on both sides.
	if fastRes.ProducerPerSec <= reflectRes.ProducerPerSec {
		t.Errorf("fast producer (%.0f/s) should beat reflect (%.0f/s)",
			fastRes.ProducerPerSec, reflectRes.ProducerPerSec)
	}
	if fastRes.ConsumerPerSec <= reflectRes.ConsumerPerSec {
		t.Errorf("fast consumer (%.0f/s) should beat reflect (%.0f/s)",
			fastRes.ConsumerPerSec, reflectRes.ConsumerPerSec)
	}
	// Wire size stays under 1 KB as in §5.5.2.
	if fastRes.AvgMessageBytes >= 1024 {
		t.Errorf("alarm messages %f bytes, want < 1 KB", fastRes.AvgMessageBytes)
	}
}

func TestFig12MLDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run")
	}
	env := NewEnv(tinyScale())
	res, err := Fig12(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == 0 {
		t.Fatal("no records processed")
	}
	_, _, hist, mlShare := res.Shares()
	// Paper: ML ≈ 80 % of batch time, history insignificant.
	if mlShare < 0.4 {
		t.Errorf("ML share %.2f; expected the dominant component", mlShare)
	}
	if hist > mlShare {
		t.Errorf("history share %.2f exceeds ML %.2f", hist, mlShare)
	}
	if out := RenderFig12(res); !strings.Contains(out, "machine learning") {
		t.Error("render broken")
	}
}

func TestEndToEndLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run")
	}
	env := NewEnv(tinyScale())
	results, err := EndToEnd(env)
	if err != nil {
		t.Fatal(err)
	}
	// Counted facts only: which of the ladder's tiny runs is faster is
	// host noise (cmd/experiments prints the throughputs).
	p := env.Scale.Partitions
	shape := [][2]int{{1, 1}, {p, 1}, {p, p}}
	// The replay is what training (5 000 alarms, at most half) leaves,
	// capped at the scale's stream.
	alarms := len(env.Alarms())
	replayed := min(alarms-min(5_000, alarms/2), env.Scale.StreamAlarms)
	if len(results) != len(shape) {
		t.Fatalf("configs = %d, want %d", len(results), len(shape))
	}
	for i, r := range results {
		if r.Partitions != shape[i][0] || r.Workers != shape[i][1] {
			t.Errorf("config %q: %d partitions, %d workers; want %v", r.Label, r.Partitions, r.Workers, shape[i])
		}
		if r.Records != replayed {
			t.Errorf("config %q processed %d records, want all %d", r.Label, r.Records, replayed)
		}
	}
}

// countingCodec is FastCodec counting its Unmarshal calls.
type countingCodec struct {
	codec.FastCodec
	calls *atomic.Int64
}

func (c countingCodec) Unmarshal(data []byte, a *alarm.Alarm) error {
	c.calls.Add(1)
	return c.FastCodec.Unmarshal(data, a)
}

// TestReplayCacheCountsUnmarshals is the §6.2 ablation as counted
// facts: an uncached replay deserializes every record twice, a cached
// one once, and either replay's verdicts are VerifyBatchInto's over the
// same records.
func TestReplayCacheCountsUnmarshals(t *testing.T) {
	env := NewEnv(tinyScale())
	alarms := env.Alarms()
	v, err := core.Train(alarms[:1000], core.DefaultVerifierConfig())
	if err != nil {
		t.Fatal(err)
	}
	replayed := alarms[1000:3000]
	want := make([]alarm.Verification, len(replayed))
	if err := v.VerifyBatchInto(replayed, want); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int64]alarm.Verification, len(want))
	for _, w := range want {
		byID[w.AlarmID] = w
	}
	for _, cache := range []bool{true, false} {
		b := broker.New()
		topic, err := b.CreateTopic("alarms", env.Scale.Partitions)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.NewProducerApp(topic, codec.FastCodec{}).Replay(replayed, 0); err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		h, err := core.NewHistory(docstore.NewDB())
		if err != nil {
			t.Fatal(err)
		}
		r, err := newReplay(b, "count", v, h, countingCodec{calls: &calls}, 2, cache)
		if err != nil {
			t.Fatal(err)
		}
		n, _, err := r.batch()
		_, got := h.Verdicts()
		r.close()
		b.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n != len(replayed) || len(got) != len(replayed) {
			t.Fatalf("cache=%v: %d alarms, %d verdicts for %d records", cache, n, len(got), len(replayed))
		}
		wantCalls := int64(len(replayed))
		if !cache {
			wantCalls *= 2
		}
		if c := calls.Load(); c != wantCalls {
			t.Errorf("cache=%v: %d unmarshals for %d records, want %d", cache, c, len(replayed), wantCalls)
		}
		for _, g := range got {
			w, ok := byID[g.AlarmID]
			if !ok || g.Predicted != w.Predicted || g.Probability != w.Probability || g.ModelName != w.ModelName {
				t.Fatalf("cache=%v: alarm %d verdict %+v, VerifyBatchInto %+v", cache, g.AlarmID, g, w)
			}
		}
	}
}

// TestReplayPollErrorIsNotCommitted: a batch whose poll fails returns
// the poll's error and commits nothing. Here the replay's consumer is
// closed under it, after one clean batch committed the first records.
func TestReplayPollErrorIsNotCommitted(t *testing.T) {
	alarms := NewEnv(tinyScale()).Alarms()
	v, err := core.Train(alarms[:600], core.DefaultVerifierConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := broker.New()
	defer b.Close()
	topic, err := b.CreateTopic("alarms", 2)
	if err != nil {
		t.Fatal(err)
	}
	prod := core.NewProducerApp(topic, codec.FastCodec{})
	if _, err := prod.Replay(alarms[600:700], 0); err != nil {
		t.Fatal(err)
	}
	r, err := newReplay(b, "poll-error", v, nil, codec.FastCodec{}, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if n, _, err := r.batch(); err != nil || n != 100 {
		t.Fatalf("clean batch = %d, %v; want 100 alarms", n, err)
	}
	before, err := b.GroupCommitted("poll-error")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prod.Replay(alarms[700:750], 0); err != nil {
		t.Fatal(err)
	}
	r.src.consumer.Close()
	if _, _, err := r.batch(); !errors.Is(err, broker.ErrClosed) {
		t.Fatalf("batch on a closed consumer: err = %v, want ErrClosed", err)
	}
	after, err := b.GroupCommitted("poll-error")
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(before, after) {
		t.Fatalf("committed offsets moved after a failed poll: %v -> %v", before, after)
	}
}

func TestFig6Stats(t *testing.T) {
	env := NewEnv(tinyScale())
	perYear, falseRatio := Fig6(env)
	if len(perYear) != 8 {
		t.Errorf("years = %d", len(perYear))
	}
	if falseRatio < 0.40 || falseRatio > 0.56 {
		t.Errorf("false ratio %.3f", falseRatio)
	}
	if out := RenderFig6(perYear, falseRatio); !strings.Contains(out, "Figure 6") {
		t.Error("render broken")
	}
}

func TestFig8AndCorpus(t *testing.T) {
	env := NewEnv(tinyScale())
	m := Fig8(env, 40, 12)
	for _, want := range []string{"annotated incidents", "Security map", "highest-risk locations", "NRF="} {
		if !strings.Contains(m, want) {
			t.Errorf("fig8 output lacks %q:\n%s", want, m)
		}
	}
	st := CorpusStats(env)
	if st.Total == 0 || st.German == 0 || st.French == 0 || st.English == 0 {
		t.Errorf("corpus stats = %+v", st)
	}
	if st.German <= st.French || st.French <= st.English {
		t.Errorf("language mix should be de > fr > en: %+v", st)
	}
	if !strings.Contains(RenderCorpusStats(st), "reports") {
		t.Error("corpus render broken")
	}
}

func TestTable1AndParams(t *testing.T) {
	if !strings.Contains(Table1(), "San Francisco") {
		t.Error("table 1 broken")
	}
	if !strings.Contains(Params(), "Nesterov") {
		t.Error("params broken")
	}
}

func TestGridSearchDemo(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a grid")
	}
	env := NewEnv(tinyScale())
	results, err := GridSearchDemo(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 9 {
		t.Fatalf("grid points = %d, want 9", len(results))
	}
	best := results[0].Point
	if best["trees"] == 5 && best["depth"] == 6 {
		t.Errorf("grid search picked the weakest corner: %+v", results[0])
	}
	var rows []string
	for _, r := range results {
		rows = append(rows, fmt.Sprintf("trees=%s depth=%s %s", g(r.Point["trees"]), g(r.Point["depth"]), g(r.Score)))
	}
	checkMLRows(t, "grid", rows)
}

func TestDriftRecovery(t *testing.T) {
	env := NewEnv(tinyScale())
	res, err := DriftRecovery(env)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped || res.Version < 1 {
		t.Fatalf("lifecycle did not swap: %+v", res)
	}
	if res.FeedbackRecords == 0 || res.CohortHoldout == 0 {
		t.Fatalf("degenerate scenario: %+v", res)
	}
	// The stale model is blind to the drift (the Δt heuristic labels
	// the cohort false); the feedback-driven retrain must recover the
	// cohort decisively and not regress overall.
	if res.CohortRecoveredAccuracy <= res.CohortStaleAccuracy {
		t.Fatalf("no cohort recovery: stale %.4f, recovered %.4f",
			res.CohortStaleAccuracy, res.CohortRecoveredAccuracy)
	}
	if res.RecoveredAccuracy < res.StaleAccuracy {
		t.Fatalf("overall accuracy regressed: stale %.4f, recovered %.4f",
			res.StaleAccuracy, res.RecoveredAccuracy)
	}
	out := RenderDriftRecovery(res)
	if !strings.Contains(out, "Drift recovery") || !strings.Contains(out, res.Cohort) {
		t.Fatalf("render missing fields:\n%s", out)
	}
}

// TestScalingCurveSizesIncrease: sizes past the dataset clamp to it, and
// the clamp must not repeat a point — the command passes 20 000 and the
// scale's own size, which are equal at small scale.
func TestScalingCurveSizesIncrease(t *testing.T) {
	s := tinyScale()
	s.SitasysAlarms, s.RFTrees, s.RFDepth = 3_000, 4, 8
	env := NewEnv(s)
	points, err := ScalingCurve(env, []int{1_000, 2_000, 20_000, s.SitasysAlarms})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, p := range points {
		got = append(got, p.Alarms)
	}
	if len(got) != 3 || got[len(got)-1] != s.SitasysAlarms {
		t.Fatalf("alarms %v, want 1000, 2000 and the dataset's %d", got, s.SitasysAlarms)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("alarms %v are not strictly increasing", got)
		}
	}
	var rows []string
	for _, p := range points {
		rows = append(rows, fmt.Sprintf("%d %s", p.Alarms, g(p.Accuracy)))
	}
	checkMLRows(t, "scaling", rows)
}

func TestDurabilityRecoversEveryRecord(t *testing.T) {
	env := NewEnv(tinyScale())
	res, err := Durability(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == 0 || res.Recovered != res.Records {
		t.Fatalf("recovered %d of %d records", res.Recovered, res.Records)
	}
	if res.MemPerSec <= 0 || res.WALPerSec <= 0 {
		t.Fatalf("rates: memory %.0f/s, WAL %.0f/s", res.MemPerSec, res.WALPerSec)
	}
	if out := RenderDurability(res); !strings.Contains(out, "Durability tax") {
		t.Fatalf("render missing its header:\n%s", out)
	}
}

func TestAblationDeltaTBalanceFallsWithDeltaT(t *testing.T) {
	env := NewEnv(tinyScale())
	deltas := []time.Duration{30 * time.Second, time.Minute, 5 * time.Minute, 10 * time.Minute}
	rates := AblationDeltaTBalance(env, deltas)
	if len(rates) != len(deltas) {
		t.Fatalf("got %d rates for %d thresholds", len(rates), len(deltas))
	}
	// A longer threshold only moves alarms from true to false.
	for i, dt := range deltas {
		r := rates[dt]
		if r < 0 || r > 1 {
			t.Fatalf("Δt=%s: rate %f outside [0, 1]", dt, r)
		}
		if i > 0 && r > rates[deltas[i-1]] {
			t.Fatalf("Δt=%s: rate %f above Δt=%s's %f", dt, r, deltas[i-1], rates[deltas[i-1]])
		}
	}
}

// TestAblationCacheRuns runs the §6.2 ablation end to end. Which of the
// two times is smaller is left to the printed row; the counted fact
// behind it (two unmarshals a record uncached, one cached) is pinned by
// TestReplayCacheCountsUnmarshals.
func TestAblationCacheRuns(t *testing.T) {
	env := NewEnv(tinyScale())
	cached, uncached, err := AblationCache(env)
	if err != nil {
		t.Fatal(err)
	}
	if cached <= 0 || uncached <= 0 {
		t.Fatalf("batch times: cached %s, uncached %s", cached, uncached)
	}
}
