package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/codec"
	"alarmverify/internal/docstore"
	"alarmverify/internal/metrics"
)

// HTTPService exposes the verification service over HTTP — the
// integration surface an Alarm Receiving Center or the "My Security
// Center" portal (§3) would call. The two writes, /verify and
// /feedback, answer 503 with the error once the store's log has
// failed: what they stored exists in memory only.
//
//	POST /verify          body: one alarm in the wire JSON format
//	                      response: the verification (and route)
//	POST /feedback        body: one operator verdict for an alarm
//	                      (the ground truth the retrainer learns from)
//	GET  /history/{mac}   per-device alarm histogram (§4.1)
//	GET  /stats           service statistics (latency quantiles included)
//	GET  /metrics         Prometheus text exposition of the edge and
//	                      pipeline latency histograms, the shed counter
//	                      and the store's cached-partial and
//	                      histogram-row counters
//	GET  /healthz         liveness: 503 with the error once the store's
//	                      log has failed
type HTTPService struct {
	verifier *Verifier
	history  *History
	policy   CustomerPolicy
	codec    codec.Codec
	// edgeLatency is the /verify request-latency histogram.
	edgeLatency *metrics.Histogram
	// pipeline, when attached, is the serving pipeline's stage/e2e
	// metric set, folded into /metrics and /stats.
	pipeline *metrics.Pipeline

	// topDevices, when positive, sizes the /stats top-device ranking —
	// a pushdown group-count aggregation over the alarm history.
	topDevices int

	mu      sync.Mutex
	served  int
	byRoute map[Route]int
}

// NewHTTPService wires the service. history may be nil (histogram
// endpoints then return 404).
func NewHTTPService(v *Verifier, h *History, policy CustomerPolicy) *HTTPService {
	return &HTTPService{
		verifier:    v,
		history:     h,
		policy:      policy,
		codec:       codec.FastCodec{},
		edgeLatency: metrics.NewHistogram(),
		byRoute:     make(map[Route]int),
	}
}

// AttachPipeline folds a serving pipeline's latency metrics (the
// per-stage and end-to-end histograms plus the shed counter recorded
// by the consumer shards) into /metrics and /stats. Call before the
// handler starts serving.
func (s *HTTPService) AttachPipeline(m *metrics.Pipeline) { s.pipeline = m }

// SetTopDevices makes /stats include the k noisiest devices (by
// stored alarm count, a pushdown aggregation over the history).
// k <= 0 (the default) omits the ranking. Call before the handler
// starts serving.
func (s *HTTPService) SetTopDevices(k int) { s.topDevices = k }

// Handler returns the service's HTTP routes.
func (s *HTTPService) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /verify", s.handleVerify)
	mux.HandleFunc("POST /feedback", s.handleFeedback)
	mux.HandleFunc("GET /history/{mac}", s.handleHistory)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleHealthz answers ok until the history's store has reported a
// durability failure: from then on the shards are halted (nothing more
// is committed) and the service is not healthy, whatever else answers.
func (s *HTTPService) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.history != nil {
		if err := s.history.Flush(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	fmt.Fprintln(w, "ok")
}

// verifyResponse is the wire shape of a verification result.
type verifyResponse struct {
	AlarmID     int64   `json:"alarmId"`
	Predicted   string  `json:"predicted"`
	Probability float64 `json:"probability"`
	Model       string  `json:"model"`
	Route       string  `json:"route"`
	LatencyMS   float64 `json:"latencyMs"`
}

// maxBodyBytes caps request bodies on the alarm edge (alarms are
// "less than 1KB in size", §5.5.2 — 1MB is generous).
const maxBodyBytes = 1 << 20

// readBody drains a capped request body, distinguishing an oversized
// payload (413, the cap was hit) from a transport error. The previous
// hand-rolled read loop swallowed both: an over-cap body came back
// silently truncated and was then either "verified" as a corrupt
// prefix or rejected with a misleading 400.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("payload exceeds %d bytes", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
		}
		return nil, false
	}
	return raw, true
}

func (s *HTTPService) handleVerify(w http.ResponseWriter, r *http.Request) {
	raw, ok := readBody(w, r)
	if !ok {
		return
	}
	var a alarm.Alarm
	if err := s.codec.Unmarshal(raw, &a); err != nil {
		http.Error(w, fmt.Sprintf("bad alarm payload: %v", err), http.StatusBadRequest)
		return
	}
	start := time.Now()
	v, err := s.verifier.Verify(&a)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	route := s.policy.Decide(&a, v)
	if s.history != nil {
		s.history.Record(&a, v)
		if err := s.history.Flush(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	s.edgeLatency.Record(time.Since(start))
	s.mu.Lock()
	s.served++
	s.byRoute[route]++
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(verifyResponse{
		AlarmID:     v.AlarmID,
		Predicted:   v.Predicted.String(),
		Probability: v.Probability,
		Model:       v.ModelName,
		Route:       route.String(),
		LatencyMS:   v.LatencyMS,
	})
}

// feedbackRequest is the wire shape of one operator verdict.
type feedbackRequest struct {
	AlarmID   int64  `json:"alarmId"`
	DeviceMAC string `json:"deviceMac"`
	// Verdict is "true" (intervention was warranted) or "false".
	Verdict string `json:"verdict"`
}

// feedbackResponse acknowledges a recorded verdict.
type feedbackResponse struct {
	AlarmID       int64  `json:"alarmId"`
	Verdict       string `json:"verdict"`
	FeedbackCount int    `json:"feedbackCount"`
}

// handleFeedback records an operator's eventual ground-truth verdict
// for an alarm. The background retrainer folds these verdicts into
// the next train set, overriding the Δt-heuristic label.
func (s *HTTPService) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if s.history == nil {
		http.Error(w, "history disabled", http.StatusNotFound)
		return
	}
	raw, ok := readBody(w, r)
	if !ok {
		return
	}
	var req feedbackRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		http.Error(w, fmt.Sprintf("bad feedback payload: %v", err), http.StatusBadRequest)
		return
	}
	if req.AlarmID == 0 {
		http.Error(w, "feedback needs a non-zero alarmId", http.StatusBadRequest)
		return
	}
	var verdict alarm.Label
	switch req.Verdict {
	case "true":
		verdict = alarm.True
	case "false":
		verdict = alarm.False
	default:
		http.Error(w, fmt.Sprintf("verdict must be %q or %q, got %q", "true", "false", req.Verdict),
			http.StatusBadRequest)
		return
	}
	s.history.RecordFeedback(Feedback{
		AlarmID:   req.AlarmID,
		DeviceMAC: req.DeviceMAC,
		Verdict:   verdict,
		At:        time.Now().UTC(),
	})
	if err := s.history.Flush(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(feedbackResponse{
		AlarmID:       req.AlarmID,
		Verdict:       req.Verdict,
		FeedbackCount: s.history.FeedbackCount(),
	})
}

func (s *HTTPService) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.history == nil {
		http.Error(w, "history disabled", http.StatusNotFound)
		return
	}
	mac := r.PathValue("mac")
	since := time.Now().Add(-30 * 24 * time.Hour)
	if q := r.URL.Query().Get("since"); q != "" {
		t, err := time.Parse(time.RFC3339, q)
		if err != nil {
			http.Error(w, "bad since parameter (RFC3339)", http.StatusBadRequest)
			return
		}
		since = t
	}
	bucket := 24 * time.Hour
	if q := r.URL.Query().Get("bucket"); q != "" {
		// Stored timestamps are whole seconds and bars are labelled with
		// whole-second starts, so a bucket is a whole number of seconds.
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 || d%time.Second != 0 {
			http.Error(w, "bad bucket parameter (a positive whole number of seconds)", http.StatusBadRequest)
			return
		}
		bucket = d
	}
	buckets, err := s.history.DeviceHistogram(mac, since, bucket)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(buckets)
}

// ServiceStats is the /stats payload. The model fields come from one
// atomic snapshot of the live verifier, so after a hot swap they are
// the swapped-in model's — never a mix of two models' fields. The
// latency fields come from the lock-free histograms: VerifyLatency is
// the HTTP edge, Pipeline the attached serving pipeline's per-stage
// and end-to-end quantiles, ShedRecords its load-shedding drop count.
type ServiceStats struct {
	Served        int                               `json:"served"`
	ByRoute       map[string]int                    `json:"byRoute"`
	MeanLatencyMS float64                           `json:"meanLatencyMs"`
	VerifyLatency *metrics.LatencySummary           `json:"verifyLatency,omitempty"`
	Pipeline      map[string]metrics.LatencySummary `json:"pipelineLatency,omitempty"`
	ShedRecords   int64                             `json:"shedRecords"`
	Model         string                            `json:"model"`
	ModelVersion  int                               `json:"modelVersion"`
	TrainRecords  int                               `json:"trainRecords"`
	Features      int                               `json:"features"`
	FeedbackCount int                               `json:"feedbackCount"`
	// TopDevices ranks the noisiest devices by stored alarm count
	// (present when SetTopDevices enabled the panel and a history is
	// attached).
	TopDevices []DeviceCount `json:"topDevices,omitempty"`
	// AlarmFields reports how the store holds each field of the alarms
	// collection: the kind its first value fixed (string, float64,
	// int64 or int).
	AlarmFields []docstore.FieldInfo `json:"alarmFields,omitempty"`
}

func (s *HTTPService) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	st := ServiceStats{
		Served:  s.served,
		ByRoute: make(map[string]int, len(s.byRoute)),
	}
	for route, n := range s.byRoute {
		st.ByRoute[route.String()] = n
	}
	s.mu.Unlock()
	if edge := s.edgeLatency.Snapshot(); edge.N > 0 {
		sum := edge.Summary()
		st.VerifyLatency = &sum
		st.MeanLatencyMS = sum.MeanMS
	}
	if s.pipeline != nil {
		ps := s.pipeline.Snapshot()
		st.Pipeline = make(map[string]metrics.LatencySummary, len(ps.Stages))
		for stage, snap := range ps.Stages {
			st.Pipeline[string(stage)] = snap.Summary()
		}
		st.ShedRecords = ps.ShedRecords
	}
	info := s.verifier.Info()
	st.Model = string(info.Stats.Algorithm)
	st.ModelVersion = info.ModelVersion
	st.TrainRecords = info.Stats.TrainRecords
	st.Features = info.Stats.Features
	if s.history != nil {
		st.FeedbackCount = s.history.FeedbackCount()
		st.AlarmFields = s.history.Fields()
		if s.topDevices > 0 {
			if top, err := s.history.TopDevices(s.topDevices); err == nil {
				st.TopDevices = top
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// handleMetrics renders the latency histograms in the Prometheus text
// exposition format: the HTTP edge histogram always, plus the
// attached pipeline's stage/e2e histograms and shed counter, plus how
// the attached history's store kept its cached aggregation partials up
// to date (recomputed is the fallback; served and advanced are the
// fast paths) and how many rows its histogram sweeps counted.
func (s *HTTPService) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WritePromHistogram(w, "alarmverify_http_verify_latency_seconds",
		s.edgeLatency.Snapshot())
	if s.pipeline != nil {
		s.pipeline.Snapshot().WriteProm(w)
	}
	if s.history != nil {
		st := s.history.AggPartials()
		fmt.Fprintln(w, "# HELP alarmverify_store_agg_partials_total Cached aggregation partials by how an ask found them.")
		fmt.Fprintln(w, "# TYPE alarmverify_store_agg_partials_total counter")
		fmt.Fprintf(w, "alarmverify_store_agg_partials_total{outcome=\"served\"} %d\n", st.Served)
		fmt.Fprintf(w, "alarmverify_store_agg_partials_total{outcome=\"advanced\"} %d\n", st.Advanced)
		fmt.Fprintf(w, "alarmverify_store_agg_partials_total{outcome=\"recomputed\"} %d\n", st.Recomputed)
		fmt.Fprintln(w, "# HELP alarmverify_store_agg_rows_folded_total Rows read to bring cached aggregation partials up to date.")
		fmt.Fprintln(w, "# TYPE alarmverify_store_agg_rows_folded_total counter")
		fmt.Fprintf(w, "alarmverify_store_agg_rows_folded_total %d\n", st.RowsFolded)
		fmt.Fprintln(w, "# HELP alarmverify_store_histogram_rows_total Rows the per-device histogram sweeps counted.")
		fmt.Fprintln(w, "# TYPE alarmverify_store_histogram_rows_total counter")
		fmt.Fprintf(w, "alarmverify_store_histogram_rows_total %d\n", st.RowsBucketed)
	}
}
