package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/codec"
	"alarmverify/internal/metrics"
)

func TestHTTPMetricsEndpoint(t *testing.T) {
	svc, srv, wire := newTestService(t)
	pipe := metrics.NewPipeline()
	pipe.Stage(metrics.StageE2E).Record(25 * time.Millisecond)
	pipe.AddShed(9)
	svc.AttachPipeline(pipe)
	svc.SetTopDevices(3)

	// Drive one verification so the edge histogram has an observation,
	// the /stats ranking around it so the store's partials are built,
	// then advanced over the verified alarm, and the device's histogram,
	// which counts that alarm.
	var a alarm.Alarm
	if err := (codec.FastCodec{}).Unmarshal(wire, &a); err != nil {
		t.Fatal(err)
	}
	history := "/history/" + a.DeviceMAC + "?since=2000-01-01T00:00:00Z"
	for _, step := range []string{"/stats", "/verify", "/stats", history} {
		resp, err := http.Post(srv.URL+step, "application/json", bytes.NewReader(wire))
		if step != "/verify" {
			resp, err = http.Get(srv.URL + step)
		}
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	parts := svc.history.db.Partitions()

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`alarmverify_http_verify_latency_seconds{quantile="0.99"}`,
		"alarmverify_http_verify_latency_seconds_count{} 1",
		`alarmverify_stage_latency_seconds{stage="e2e",quantile="0.5"}`,
		"alarmverify_shed_records_total 9",
		// One alarm in one partition: that partial advanced over one row,
		// the others were served as they stood.
		fmt.Sprintf(`alarmverify_store_agg_partials_total{outcome="served"} %d`, parts-1),
		`alarmverify_store_agg_partials_total{outcome="advanced"} 1`,
		fmt.Sprintf(`alarmverify_store_agg_partials_total{outcome="recomputed"} %d`, parts),
		"alarmverify_store_agg_rows_folded_total 1",
		"alarmverify_store_histogram_rows_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPStatsLatencyFields(t *testing.T) {
	svc, srv, wire := newTestService(t)
	pipe := metrics.NewPipeline()
	pipe.Stage(metrics.StageE2E).Record(40 * time.Millisecond)
	pipe.Stage(metrics.StageClassify).Record(3 * time.Millisecond)
	pipe.AddShed(4)
	svc.AttachPipeline(pipe)

	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/verify", "application/json", bytes.NewReader(wire))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Served != 3 {
		t.Errorf("served = %d", st.Served)
	}
	if st.VerifyLatency == nil || st.VerifyLatency.Count != 3 {
		t.Fatalf("verifyLatency missing or wrong: %+v", st.VerifyLatency)
	}
	if st.VerifyLatency.P99MS <= 0 {
		t.Errorf("edge p99 = %v, want > 0", st.VerifyLatency.P99MS)
	}
	if st.MeanLatencyMS <= 0 {
		t.Errorf("meanLatencyMs = %v, want > 0", st.MeanLatencyMS)
	}
	if st.ShedRecords != 4 {
		t.Errorf("shedRecords = %d, want 4", st.ShedRecords)
	}
	e2e, ok := st.Pipeline["e2e"]
	if !ok || e2e.Count != 1 {
		t.Fatalf("pipeline e2e summary missing: %+v", st.Pipeline)
	}
	if e2e.P99MS < 30 || e2e.P99MS > 60 {
		t.Errorf("e2e p99 = %vms, want ≈ 40ms", e2e.P99MS)
	}
	if cls := st.Pipeline["classify"]; cls.Count != 1 {
		t.Errorf("classify summary missing: %+v", st.Pipeline)
	}
}
