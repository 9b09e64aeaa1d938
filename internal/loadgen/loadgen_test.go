package loadgen

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/dataset"
)

func sourceAlarms(t testing.TB, n int) []alarm.Alarm {
	t.Helper()
	world := dataset.NewWorld(7)
	cfg := dataset.DefaultSitasysConfig()
	cfg.NumAlarms = n
	cfg.NumDevices = 64
	cfg.PayloadBytes = 0
	return dataset.GenerateSitasys(world, cfg)
}

func TestScheduleConstantRate(t *testing.T) {
	alarms := sourceAlarms(t, 500)
	cfg := Config{Shape: Constant{PerSec: 2000}, Duration: 500 * time.Millisecond, Seed: 1}
	sched, err := Schedule(cfg, alarms)
	if err != nil {
		t.Fatal(err)
	}
	want := 1000
	if len(sched) < want*9/10 || len(sched) > want*11/10 {
		t.Fatalf("constant 2000/s over 500ms produced %d arrivals, want ≈ %d", len(sched), want)
	}
	seen := make(map[int64]bool)
	for i, ar := range sched {
		if i > 0 && ar.At < sched[i-1].At {
			t.Fatalf("schedule not sorted at %d", i)
		}
		if ar.At < 0 || ar.At >= cfg.Duration {
			t.Fatalf("arrival %d at %s outside [0,%s)", i, ar.At, cfg.Duration)
		}
		if seen[ar.Alarm.ID] {
			t.Fatalf("duplicate alarm ID %d (IDs must be rewritten across cycles)", ar.Alarm.ID)
		}
		seen[ar.Alarm.ID] = true
	}
}

func TestSchedulePoissonMeanRate(t *testing.T) {
	alarms := sourceAlarms(t, 500)
	cfg := Config{Shape: Constant{PerSec: 5000}, Duration: time.Second, Poisson: true, Seed: 3}
	sched, err := Schedule(cfg, alarms)
	if err != nil {
		t.Fatal(err)
	}
	// Poisson(5000): stddev ≈ 71, so ±5 % is > 3σ.
	if len(sched) < 4750 || len(sched) > 5250 {
		t.Fatalf("poisson 5000/s over 1s produced %d arrivals", len(sched))
	}
	// Inter-arrival jitter: deterministic pacing has zero variance;
	// Poisson must not.
	var distinct int
	for i := 2; i < min(len(sched), 100); i++ {
		if sched[i].At-sched[i-1].At != sched[i-1].At-sched[i-2].At {
			distinct++
		}
	}
	if distinct == 0 {
		t.Fatal("poisson arrivals are evenly spaced")
	}
}

func TestScheduleFlashCrowdSpike(t *testing.T) {
	cfg, err := Preset("flash", 1000, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 5
	sched, err := Schedule(cfg, sourceAlarms(t, 500))
	if err != nil {
		t.Fatal(err)
	}
	fc := cfg.Shape.(FlashCrowd)
	var inSpike, before int
	for _, ar := range sched {
		switch {
		case ar.At >= fc.SpikeAt && ar.At < fc.SpikeAt+fc.SpikeFor:
			inSpike++
		case ar.At < fc.SpikeAt:
			before++
		}
	}
	// Spike window is 200ms at 8×1000/s ⇒ ≈1600; the 400ms before it
	// at 1000/s ⇒ ≈400. Require at least a 3× density ratio.
	spikeDensity := float64(inSpike) / fc.SpikeFor.Seconds()
	baseDensity := float64(before) / fc.SpikeAt.Seconds()
	if spikeDensity < 3*baseDensity {
		t.Fatalf("spike density %.0f/s not ≫ base %.0f/s", spikeDensity, baseDensity)
	}
}

func TestScheduleBurstOnOff(t *testing.T) {
	cfg, err := Preset("burst", 600, 900*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 11
	sched, err := Schedule(cfg, sourceAlarms(t, 500))
	if err != nil {
		t.Fatal(err)
	}
	bu := cfg.Shape.(Bursty)
	var on, off int
	for _, ar := range sched {
		if ar.At%(bu.On+bu.Off) >= bu.Off {
			on++
		} else {
			off++
		}
	}
	onDensity := float64(on) / bu.On.Seconds()
	offDensity := float64(off) / (2 * bu.Off.Seconds())
	if onDensity < 2*offDensity {
		t.Fatalf("on-phase density %.0f/s not ≫ off %.0f/s", onDensity, offDensity)
	}
}

func TestScheduleDiurnalTrough(t *testing.T) {
	cfg, err := Preset("diurnal", 2000, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 13
	sched, err := Schedule(cfg, sourceAlarms(t, 500))
	if err != nil {
		t.Fatal(err)
	}
	// First quarter of each 500ms "day" is the rising peak; the third
	// quarter the trough (sin negative).
	var peak, trough int
	for _, ar := range sched {
		phase := ar.At % (cfg.Duration / 2)
		q := cfg.Duration / 8
		switch {
		case phase < q:
			peak++
		case phase >= 2*q && phase < 3*q:
			trough++
		}
	}
	if peak <= trough*2 {
		t.Fatalf("diurnal peak %d not ≫ trough %d", peak, trough)
	}
}

func TestScheduleZipfSkew(t *testing.T) {
	alarms := sourceAlarms(t, 2000)
	cfg := Config{Shape: Constant{PerSec: 4000}, Duration: time.Second, Seed: 17, ZipfS: 1.5}
	sched, err := Schedule(cfg, alarms)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, ar := range sched {
		counts[ar.Alarm.DeviceMAC]++
	}
	top := 0
	for _, c := range counts {
		if c > top {
			top = c
		}
	}
	// 64 devices uniform ⇒ top ≈ 1.6 %; Zipf(1.5) concentrates far
	// more than 10 % on the hottest device.
	if share := float64(top) / float64(len(sched)); share < 0.10 {
		t.Fatalf("hottest device got %.1f%% of traffic, want Zipf-skewed ≥ 10%%", 100*share)
	}

	if _, err := Schedule(Config{Shape: Constant{PerSec: 10}, Duration: time.Second, ZipfS: 0.5}, alarms); err == nil {
		t.Fatal("ZipfS in (0,1] accepted, want error")
	}
}

// TestExtremeRateTerminates pins the dt>=1ns clamp: rates past 1e9/s
// round the deterministic inter-arrival to zero and used to hang the
// generator instead of ending the stream.
func TestExtremeRateTerminates(t *testing.T) {
	alarms := sourceAlarms(t, 10)
	sched, err := Schedule(Config{Shape: Constant{PerSec: 2e9}, Duration: 10 * time.Microsecond}, alarms)
	if err != nil {
		t.Fatal(err)
	}
	// 10µs at 1 arrival/ns (the clamp) bounds the schedule at 10k.
	if len(sched) == 0 || len(sched) > 10_000 {
		t.Fatalf("extreme-rate schedule has %d arrivals", len(sched))
	}
}

func TestScheduleValidation(t *testing.T) {
	alarms := sourceAlarms(t, 10)
	if _, err := Schedule(Config{Duration: time.Second}, alarms); err == nil {
		t.Fatal("nil shape accepted")
	}
	if _, err := Schedule(Config{Shape: Constant{PerSec: 1}, Duration: 0}, alarms); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := Schedule(Config{Shape: Constant{PerSec: 1}, Duration: time.Second}, nil); err == nil {
		t.Fatal("empty source accepted")
	}
}

func TestPresetNames(t *testing.T) {
	for _, name := range Scenarios() {
		cfg, err := Preset(name, 100, time.Second)
		if err != nil {
			t.Errorf("Preset(%q): %v", name, err)
			continue
		}
		if cfg.Shape == nil {
			t.Errorf("Preset(%q) has nil shape", name)
		}
	}
	if _, err := Preset("bogus", 100, time.Second); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := Preset("flash", 0, time.Second); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Preset("flash", 100, 0); err == nil {
		t.Fatal("zero duration accepted")
	}
}

// countSink counts sends, optionally sleeping to simulate a slow sink.
type countSink struct {
	delay time.Duration
	n     atomic.Int64
}

func (s *countSink) Send(*alarm.Alarm) error {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.n.Add(1)
	return nil
}

// TestStreamMatchesSchedule pins that the lazy generator and the
// materialized schedule are the same sequence — Schedule is defined
// as "collect the Stream", and both must stay deterministic per seed.
func TestStreamMatchesSchedule(t *testing.T) {
	alarms := sourceAlarms(t, 300)
	cfg := Config{
		Shape:    FlashCrowd{Base: 800, Factor: 8, SpikeAt: 200 * time.Millisecond, SpikeFor: 100 * time.Millisecond},
		Duration: 500 * time.Millisecond, Poisson: true, Seed: 9, ZipfS: 1.4,
		Deadline: 20 * time.Millisecond,
	}
	sched, err := Schedule(cfg, alarms)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(cfg, alarms)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		ar, ok := st.Next()
		if !ok {
			if i != len(sched) {
				t.Fatalf("stream ended after %d arrivals, schedule has %d", i, len(sched))
			}
			return
		}
		if i >= len(sched) {
			t.Fatalf("stream longer than schedule (%d)", len(sched))
		}
		want := sched[i]
		if ar.At != want.At || ar.Deadline != want.Deadline ||
			ar.Alarm.ID != want.Alarm.ID || ar.Alarm.DeviceMAC != want.Alarm.DeviceMAC {
			t.Fatalf("arrival %d differs: stream %+v vs schedule %+v", i, ar, want)
		}
	}
}

func TestDriverRunStream(t *testing.T) {
	alarms := sourceAlarms(t, 200)
	cfg := Config{Shape: Constant{PerSec: 2000}, Duration: 150 * time.Millisecond, Seed: 4}
	st, err := NewStream(cfg, alarms)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countSink{}
	stats := (&Driver{Sink: sink, Workers: 3}).RunStream(st)
	want, err := Schedule(cfg, alarms)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scheduled != len(want) || stats.Sent != len(want) {
		t.Fatalf("streamed %d sent %d, want %d", stats.Scheduled, stats.Sent, len(want))
	}
	if stats.Elapsed < 100*time.Millisecond {
		t.Fatalf("open loop finished in %s, pacing ignored?", stats.Elapsed)
	}
}

func TestDriverOpenLoop(t *testing.T) {
	sched, err := Schedule(Config{Shape: Constant{PerSec: 2000}, Duration: 200 * time.Millisecond, Seed: 1},
		sourceAlarms(t, 200))
	if err != nil {
		t.Fatal(err)
	}
	sink := &countSink{}
	st := (&Driver{Sink: sink}).Run(sched)
	if st.Sent != len(sched) || int(sink.n.Load()) != len(sched) {
		t.Fatalf("sent %d of %d", st.Sent, len(sched))
	}
	if st.Missed != 0 || st.Errors != 0 {
		t.Fatalf("unexpected missed=%d errors=%d", st.Missed, st.Errors)
	}
	if st.Elapsed < 150*time.Millisecond {
		t.Fatalf("open loop finished in %s, pacing ignored?", st.Elapsed)
	}
}

func TestDriverDeadlineMisses(t *testing.T) {
	sched, err := Schedule(Config{
		Shape: Constant{PerSec: 1000}, Duration: 150 * time.Millisecond,
		Seed: 1, Deadline: 5 * time.Millisecond,
	}, sourceAlarms(t, 200))
	if err != nil {
		t.Fatal(err)
	}
	// A sink 20× slower than the arrival interval forces the single
	// pacing worker past deadlines.
	sink := &countSink{delay: 20 * time.Millisecond}
	st := (&Driver{Sink: sink}).Run(sched)
	if st.Missed == 0 {
		t.Fatalf("slow sink missed nothing: %+v", st)
	}
	if st.Sent+st.Missed != len(sched) {
		t.Fatalf("sent %d + missed %d != scheduled %d", st.Sent, st.Missed, len(sched))
	}
	if st.MaxLateness < 5*time.Millisecond {
		t.Fatalf("max lateness %s, want > deadline", st.MaxLateness)
	}
}

func TestBrokerSink(t *testing.T) {
	br := broker.New()
	defer br.Close()
	topic, err := br.CreateTopic("alarms", 4)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewBrokerSink(topic, codec.FastCodec{})
	alarms := sourceAlarms(t, 8)
	before := time.Now()
	var wg sync.WaitGroup
	for i := range alarms {
		wg.Add(1)
		go func(i int) { // concurrent sends: the driver fans out
			defer wg.Done()
			if err := sink.Send(&alarms[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	var total int64
	for p := 0; p < topic.Partitions(); p++ {
		hw, err := topic.HighWatermark(p)
		if err != nil {
			t.Fatal(err)
		}
		total += hw
	}
	if total != int64(len(alarms)) {
		t.Fatalf("topic holds %d records, want %d", total, len(alarms))
	}
	cons, err := broker.NewConsumer(br, "lg-test", topic, "c1")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	recs, lease, err := cons.PollLeased(len(alarms), time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	var c codec.FastCodec
	for _, r := range recs {
		if r.Timestamp.Before(before) {
			t.Fatalf("record timestamp %s predates send", r.Timestamp)
		}
		var a alarm.Alarm
		if err := c.Unmarshal(r.Value, &a); err != nil {
			t.Fatalf("undecodable record: %v", err)
		}
		if string(r.Key) != a.DeviceMAC {
			t.Fatalf("record key %q != device %q", r.Key, a.DeviceMAC)
		}
	}
}

func TestHTTPSink(t *testing.T) {
	var got atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var c codec.FastCodec
		var a alarm.Alarm
		body := make([]byte, r.ContentLength)
		r.Body.Read(body)
		if err := c.Unmarshal(body, &a); err != nil || a.ID == 0 {
			http.Error(w, "bad alarm", http.StatusBadRequest)
			return
		}
		got.Add(1)
	}))
	defer srv.Close()
	alarms := sourceAlarms(t, 5)
	sink := &HTTPSink{URL: srv.URL + "/verify"}
	for i := range alarms {
		if err := sink.Send(&alarms[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got.Load() != int64(len(alarms)) {
		t.Fatalf("server saw %d posts, want %d", got.Load(), len(alarms))
	}
	bad := &HTTPSink{URL: srv.URL + "/missing"}
	junk := alarm.Alarm{} // ID 0 → 400 from the handler above
	if err := bad.Send(&junk); err == nil {
		t.Fatal("non-2xx response not surfaced as error")
	}
}
