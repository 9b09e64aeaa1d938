package core

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"alarmverify/internal/codec"
	"alarmverify/internal/docstore"
	"alarmverify/internal/ml"
)

func newTestService(t *testing.T) (*HTTPService, *httptest.Server, []byte) {
	t.Helper()
	_, alarms := testAlarms(3000)
	v := fastVerifier(t, alarms[:2000])
	h, err := NewHistory(docstore.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	svc := NewHTTPService(v, h, DefaultCustomerPolicy())
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	wire, err := codec.FastCodec{}.Marshal(nil, &alarms[2500])
	if err != nil {
		t.Fatal(err)
	}
	return svc, srv, wire
}

func TestHTTPVerify(t *testing.T) {
	svc, srv, wire := newTestService(t)
	resp, err := http.Post(srv.URL+"/verify", "application/json", bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out verifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Predicted != "true" && out.Predicted != "false" {
		t.Errorf("predicted = %q", out.Predicted)
	}
	if out.Probability < 0.5 || out.Probability > 1 {
		t.Errorf("probability = %f", out.Probability)
	}
	if out.Route == "" {
		t.Error("route missing")
	}
	// The alarm is stored with the verdict it was answered with (a
	// float64 survives the JSON round trip bit for bit).
	_, stored := svc.history.Verdicts()
	if len(stored) != 1 {
		t.Fatalf("%d stored verdicts, want 1", len(stored))
	}
	if v := stored[0]; v.AlarmID != out.AlarmID || v.Predicted.String() != out.Predicted ||
		math.Float64bits(v.Probability) != math.Float64bits(out.Probability) || v.ModelName != out.Model {
		t.Fatalf("stored verdict %+v, answered %+v", v, out)
	}
}

// TestHTTPVerifyOversizedBodyIs413 is the regression test for the
// hand-rolled read loop: a body over the 1MB cap used to be silently
// truncated and then either "verified" as a corrupt-prefix payload or
// rejected with a misleading 400. It must be a 413.
func TestHTTPVerifyOversizedBodyIs413(t *testing.T) {
	_, srv, wire := newTestService(t)
	big := make([]byte, maxBodyBytes+1)
	// A valid alarm prefix makes the old truncate-and-decode behavior
	// reachable: the first 1MB would decode were it not oversized.
	copy(big, wire)
	for i := len(wire); i < len(big); i++ {
		big[i] = ' '
	}
	resp, err := http.Post(srv.URL+"/verify", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status = %d, want 413", resp.StatusCode)
	}
	// An exactly-at-cap body must still be readable: it is the valid
	// alarm plus whitespace padding, so it decodes and verifies (200,
	// not 413).
	atCap := big[:maxBodyBytes]
	resp, err = http.Post(srv.URL+"/verify", "application/json", bytes.NewReader(atCap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("at-cap body: status = %d, want 200 (valid alarm + whitespace padding)", resp.StatusCode)
	}
}

func TestHTTPFeedback(t *testing.T) {
	svc, srv, _ := newTestService(t)
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/feedback", "application/json",
			bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post(`{"alarmId": 42, "deviceMac": "aa:bb", "verdict": "true"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("feedback status = %d, want 202", resp.StatusCode)
	}
	var ack feedbackResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.AlarmID != 42 || ack.Verdict != "true" || ack.FeedbackCount != 1 {
		t.Fatalf("ack = %+v", ack)
	}
	if got, err := svc.history.FeedbackLabels(); err != nil || got[42] != 1 {
		t.Fatalf("recorded labels = %v, %v", got, err)
	}

	for _, bad := range []string{
		`{"alarmId": 42, "verdict": "maybe"}`, // unknown verdict
		`{"verdict": "true"}`,                 // missing alarm id
		`not json`,
	} {
		resp := post(bad)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", bad, resp.StatusCode)
		}
	}

	// Without a history there is nowhere to record verdicts.
	_, alarms := testAlarms(3000)
	v := fastVerifier(t, alarms[:2000])
	noHist := httptest.NewServer(NewHTTPService(v, nil, DefaultCustomerPolicy()).Handler())
	defer noHist.Close()
	resp2, err := http.Post(noHist.URL+"/feedback", "application/json",
		bytes.NewReader([]byte(`{"alarmId": 1, "verdict": "true"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("feedback without history: status = %d, want 404", resp2.StatusCode)
	}
}

// TestHTTPStatsReflectsHotSwap is the regression test for /stats
// reporting boot-time verifier stats: after a hot swap it must
// reflect the live snapshot — model name, train records, features and
// version all from the swapped-in model.
func TestHTTPStatsReflectsHotSwap(t *testing.T) {
	svc, srv, _ := newTestService(t)
	getStats := func() ServiceStats {
		t.Helper()
		resp, err := http.Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st ServiceStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	before := getStats()
	if before.Model != "rf" || before.ModelVersion != 0 {
		t.Fatalf("boot stats = %+v", before)
	}

	// Swap in a differently-trained, differently-shaped model.
	_, alarms := testAlarms(1200)
	lrCfg := ml.DefaultLogisticRegressionConfig()
	lrCfg.MaxIterations = 30
	cfg := DefaultVerifierConfig()
	cfg.Classifier = ml.NewLogisticRegression(lrCfg)
	nv, err := Train(alarms[:700], cfg)
	if err != nil {
		t.Fatal(err)
	}
	nv.withVersion(7)
	svc.verifier.Swap(nv)

	after := getStats()
	if after.Model != "lr" || after.ModelVersion != 7 {
		t.Fatalf("post-swap stats = %+v", after)
	}
	if after.TrainRecords != nv.Stats().TrainRecords || after.Features != nv.Stats().Features {
		t.Fatalf("post-swap stats mix models: %+v vs %+v", after, nv.Stats())
	}
	if after.TrainRecords == before.TrainRecords {
		t.Fatal("swap not observable: train records unchanged")
	}
}

// TestHTTPVerifyRejectsBadPayload pins /verify's 400 body, which
// hands the codec's error text to the client: one "codec:" prefix, the
// scanner's position for a syntax error, the name for an unknown enum.
func TestHTTPVerifyRejectsBadPayload(t *testing.T) {
	_, srv, _ := newTestService(t)
	for body, want := range map[string]string{
		"not an alarm": "bad alarm payload: codec: fast unmarshal: expected '{' at 0\n",
		`{"id":5,"alarmType":"nope","objectType":"public"}`: "bad alarm payload: codec: unknown alarm type \"nope\"\n",
	} {
		resp, err := http.Post(srv.URL+"/verify", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || string(got) != want {
			t.Errorf("%s: %d %q, want 400 %q", body, resp.StatusCode, got, want)
		}
	}
}

func TestHTTPHistoryAndStats(t *testing.T) {
	_, srv, wire := newTestService(t)
	// Verify twice so history and stats have content.
	for i := 0; i < 2; i++ {
		resp, err := http.Post(srv.URL+"/verify", "application/json", bytes.NewReader(wire))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// Extract the device MAC from the wire form via the codec.
	var a = struct{ DeviceMAC string }{}
	_ = a
	// The alarm's MAC is inside the wire JSON; decode it generically.
	var m map[string]any
	if err := json.Unmarshal(wire, &m); err != nil {
		t.Fatal(err)
	}
	mac := m["deviceMac"].(string)

	resp, err := http.Get(srv.URL + "/history/" + mac + "?bucket=24h")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("history status = %d", resp.StatusCode)
	}
	var buckets []HistogramBucket
	if err := json.NewDecoder(resp.Body).Decode(&buckets); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range buckets {
		total += b.Count
	}
	// The probe alarm's timestamp is from 2015/16; with since=now-30d
	// the histogram may be empty — what matters is a valid response.
	_ = total

	sresp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st ServiceStats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Served != 2 || st.Model != "rf" || st.TrainRecords == 0 {
		t.Errorf("stats = %+v", st)
	}
	routed := 0
	for _, n := range st.ByRoute {
		routed += n
	}
	if routed != 2 {
		t.Errorf("route counts = %v", st.ByRoute)
	}
	// The verified alarms sit in thirteen typed columns, the alarm's
	// nine and its verdict's four: the alarm id, predicted and the model
	// version int64, the timestamp, duration and probability float64,
	// the rest strings.
	if len(st.AlarmFields) != len(alarmFields) {
		t.Errorf("alarmFields = %+v, want the %d stored fields", st.AlarmFields, len(alarmFields))
	}
	kinds := map[string]string{"alarmId": "int64", "ts": "float64", "duration": "float64",
		"predicted": "int64", "probability": "float64", "modelVersion": "int64"}
	for _, f := range st.AlarmFields {
		want := kinds[f.Name]
		if want == "" {
			want = "string"
		}
		if f.Kind != want {
			t.Errorf("field %s: kind %s, want %s", f.Name, f.Kind, want)
		}
	}
}

func TestHTTPHealthzAndBadParams(t *testing.T) {
	_, srv, _ := newTestService(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	for _, url := range []string{
		srv.URL + "/history/x?since=not-a-time",
		srv.URL + "/history/x?bucket=-5m",
		srv.URL + "/history/x?bucket=banana",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
		}
	}
}

// TestHTTPHistoryBucketWholeSeconds: bars start at origin + i × bucket
// and are labelled with whole-second times, so a bucket that is not a
// whole number of seconds is refused — 1500ms would mislabel every
// other bar, and 1ns from year 1 takes the bar index past MaxInt64 and
// used to fail the JSON encoding after a 200 header.
func TestHTTPHistoryBucketWholeSeconds(t *testing.T) {
	_, srv, _ := newTestService(t)
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"?bucket=1500ms", http.StatusBadRequest},
		{"?since=0001-01-01T00:00:00Z&bucket=1ns", http.StatusBadRequest},
		{"?bucket=90s", http.StatusOK},
		{"?since=0001-01-01T00:00:00Z&bucket=2s", http.StatusOK},
	} {
		resp, err := http.Get(srv.URL + "/history/x" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var bars []HistogramBucket
		decodeErr := json.NewDecoder(resp.Body).Decode(&bars)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.query, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusOK && decodeErr != nil {
			t.Errorf("%s: body does not decode: %v", tc.query, decodeErr)
		}
	}
}

func TestHTTPVerifyLatencyBudget(t *testing.T) {
	_, srv, wire := newTestService(t)
	start := time.Now()
	resp, err := http.Post(srv.URL+"/verify", "application/json", bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The §5.5.1 goal is a verification within 10 seconds; a single
	// in-process call must be far inside that.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("verify took %v", elapsed)
	}
}
