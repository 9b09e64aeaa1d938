// Package loadgen generates alarm streams with realistic arrival
// processes, so the serving system can be exercised — and measured —
// under the traffic the ROADMAP's "millions of users" north star
// implies rather than the benign constant-rate replays the
// reproduction benchmarks started from.
//
// A workload is composed from three orthogonal pieces:
//
//   - a Shape, the target arrival rate as a function of elapsed time
//     (constant, bursty on/off, diurnal sinusoid, flash-crowd spike);
//   - an arrival process: deterministic pacing at the shape's rate, or
//     a non-homogeneous Poisson process with the shape as intensity;
//   - a device skew: alarms optionally re-keyed to a Zipf-distributed
//     device population, concentrating traffic on hot devices (and so
//     on hot broker/docstore partitions).
//
// A Stream generates the composition lazily as deterministic, seeded
// timed Arrivals (Schedule materializes the whole list when a run is
// small or needs exporting); a Driver then replays the workload
// open-loop against a Sink (the broker producer or the HTTP edge):
// arrival times are fixed in advance, so a slow consumer does not
// slow the offered load down — it builds backlog, exactly the
// overload condition the adaptive batching and load shedding in
// internal/serve are built to survive. Each record carries a
// deadline; arrivals the driver itself cannot send in time are
// dropped and counted, keeping the generator honest when the sink
// (not the service) is the bottleneck.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"alarmverify/internal/alarm"
)

// Shape is a target arrival-rate curve: the offered load in alarms
// per second at each offset from stream start.
type Shape interface {
	// Rate returns the instantaneous target rate (alarms/s, >= 0) at
	// the elapsed offset.
	Rate(elapsed time.Duration) float64
}

// Constant is a fixed-rate shape: the benign workload every benchmark
// so far assumed.
type Constant struct {
	// PerSec is the arrival rate in alarms per second.
	PerSec float64
}

// Rate implements Shape.
func (c Constant) Rate(time.Duration) float64 { return c.PerSec }

// Bursty alternates between an on-phase at Base×Factor and an
// off-phase at Base — the on/off traffic of a fleet of devices that
// report in synchronized waves.
type Bursty struct {
	// Base is the off-phase rate in alarms/s.
	Base float64
	// Factor multiplies Base during the on-phase.
	Factor float64
	// On and Off are the phase lengths; the stream starts in the
	// off-phase.
	On, Off time.Duration
}

// Rate implements Shape.
func (b Bursty) Rate(elapsed time.Duration) float64 {
	period := b.On + b.Off
	if period <= 0 {
		return b.Base
	}
	if phase := elapsed % period; phase >= b.Off {
		return b.Base * b.Factor
	}
	return b.Base
}

// Diurnal is a sinusoidal day-cycle: rate = Base·(1 + Amp·sin(2πt/Period)),
// floored at zero. With Amp near 1 the trough idles and the peak
// doubles the base — the daily swing a consumer-alarm fleet sees.
type Diurnal struct {
	// Base is the mean rate in alarms/s.
	Base float64
	// Amp in [0,1] scales the swing around Base.
	Amp float64
	// Period is the cycle length (a compressed "day").
	Period time.Duration
}

// Rate implements Shape.
func (d Diurnal) Rate(elapsed time.Duration) float64 {
	if d.Period <= 0 {
		return d.Base
	}
	r := d.Base * (1 + d.Amp*math.Sin(2*math.Pi*float64(elapsed)/float64(d.Period)))
	if r < 0 {
		return 0
	}
	return r
}

// FlashCrowd is a steady base rate with one spike window at
// Base×Factor — the §3 "large event" (storm, city-wide power cut)
// that multiplies the alarm rate for a bounded interval and is the
// workload that collapses an unprotected pipeline's p99.
type FlashCrowd struct {
	// Base is the steady rate in alarms/s.
	Base float64
	// Factor multiplies Base inside the spike window.
	Factor float64
	// SpikeAt is the window's start offset; SpikeFor its length.
	SpikeAt, SpikeFor time.Duration
}

// Rate implements Shape.
func (f FlashCrowd) Rate(elapsed time.Duration) float64 {
	if elapsed >= f.SpikeAt && elapsed < f.SpikeAt+f.SpikeFor {
		return f.Base * f.Factor
	}
	return f.Base
}

// Config composes one workload: a rate shape, the arrival process on
// top of it, the device skew, and the per-record delivery deadline.
type Config struct {
	// Shape is the target rate curve.
	Shape Shape
	// Duration bounds the generated stream.
	Duration time.Duration
	// Poisson, when true, draws exponential inter-arrival times with
	// the shape as intensity (a non-homogeneous Poisson process)
	// instead of deterministic 1/rate pacing.
	Poisson bool
	// Seed makes the schedule reproducible.
	Seed int64
	// ZipfS, when > 1, re-keys alarms to a Zipf(s)-distributed device
	// population over the source stream's devices: rank-k device
	// receives traffic ∝ 1/k^s, concentrating load on a few hot
	// partitions. 0 keeps the source keys.
	ZipfS float64
	// Deadline is the per-record delivery budget from its scheduled
	// arrival; the driver drops (and counts) records it cannot send
	// within it. 0 means no deadline.
	Deadline time.Duration
}

// Arrival is one scheduled record of the open-loop stream.
type Arrival struct {
	// At is the offset from stream start at which the record enters
	// the system.
	At time.Duration
	// Deadline is the delivery budget from At (0 = none).
	Deadline time.Duration
	// Alarm is the record payload.
	Alarm alarm.Alarm
}

// Stream generates a workload's arrivals lazily, in arrival order:
// memory stays O(source alarms) however long the stream runs, so the
// "heavy traffic" configurations (tens of thousands of alarms per
// second for minutes) never materialize the whole run up front. A
// Stream is single-goroutine; the Driver serializes its pulls.
type Stream struct {
	cfg    Config
	alarms []alarm.Alarm
	rng    *rand.Rand
	macs   []string
	zipf   *rand.Zipf

	elapsed time.Duration
	i       int
	baseID  int64
}

// NewStream validates the workload and positions the generator at
// offset zero. The sequence is deterministic for a given (Config,
// alarms) pair.
func NewStream(cfg Config, alarms []alarm.Alarm) (*Stream, error) {
	if cfg.Shape == nil {
		return nil, fmt.Errorf("loadgen: Config.Shape is nil")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: Config.Duration must be positive, got %s", cfg.Duration)
	}
	if len(alarms) == 0 {
		return nil, fmt.Errorf("loadgen: no source alarms")
	}
	if cfg.ZipfS != 0 && cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("loadgen: ZipfS must be > 1 (or 0 to disable), got %g", cfg.ZipfS)
	}
	s := &Stream{
		cfg:    cfg,
		alarms: alarms,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		baseID: alarms[0].ID,
	}
	if cfg.ZipfS > 1 {
		seen := make(map[string]bool)
		for i := range alarms {
			if m := alarms[i].DeviceMAC; !seen[m] {
				seen[m] = true
				s.macs = append(s.macs, m)
			}
		}
		sort.Strings(s.macs) // deterministic rank order
		s.zipf = rand.NewZipf(s.rng, cfg.ZipfS, 1, uint64(len(s.macs)-1))
	}
	return s, nil
}

// Next returns the next arrival, drawing the payload from the source
// alarms (cycling, with IDs rewritten to stay unique) and re-keying
// the device when Zipf skew is configured. ok is false once the
// stream's duration is exhausted.
func (s *Stream) Next() (ar Arrival, ok bool) {
	// minRate floors the candidate-arrival rate so near-zero stretches
	// (the diurnal trough) advance in bounded steps instead of
	// dividing by zero; candidates in those stretches are then thinned
	// (Lewis & Shedler) with probability rate/minRate, preserving the
	// target intensity.
	const minRate = 1.0
	for {
		rate := s.cfg.Shape.Rate(s.elapsed)
		step := math.Max(rate, minRate)
		mean := float64(time.Second) / step
		var dt time.Duration
		if s.cfg.Poisson {
			dt = time.Duration(s.rng.ExpFloat64() * mean)
		} else {
			dt = time.Duration(mean)
		}
		if dt < 1 {
			// Sub-nanosecond inter-arrivals (rates past 1e9/s, or a
			// tiny Poisson draw) must still advance time, or the
			// stream would never end.
			dt = 1
		}
		s.elapsed += dt
		if s.elapsed >= s.cfg.Duration {
			return Arrival{}, false
		}
		i := s.i
		s.i++
		if rate < step && s.rng.Float64()*step >= rate {
			continue // thinned: idle gap candidate, emit nothing
		}
		a := s.alarms[i%len(s.alarms)]
		a.ID = s.baseID + int64(i)
		if s.zipf != nil {
			a.DeviceMAC = s.macs[s.zipf.Uint64()]
		}
		return Arrival{At: s.elapsed, Deadline: s.cfg.Deadline, Alarm: a}, true
	}
}

// Schedule materializes the whole workload into timed arrivals —
// handy for export and for bounded experiment cells; long or
// high-rate runs should pull from a Stream instead (Driver.RunStream)
// to keep memory constant. The result is sorted by At and
// deterministic for a given (Config, alarms) pair.
func Schedule(cfg Config, alarms []alarm.Alarm) ([]Arrival, error) {
	s, err := NewStream(cfg, alarms)
	if err != nil {
		return nil, err
	}
	var out []Arrival
	for {
		ar, ok := s.Next()
		if !ok {
			return out, nil
		}
		out = append(out, ar)
	}
}

// Scenarios lists the named workload presets Preset accepts.
func Scenarios() []string {
	return []string{"constant", "poisson", "burst", "diurnal", "flash"}
}

// Preset builds the named workload at the given base rate over the
// given duration:
//
//	constant  deterministic pacing at rate
//	poisson   Poisson arrivals with mean rate
//	burst     on/off square wave: rate ↔ 6×rate, 1s on in every 3s
//	diurnal   sinusoid around rate (amp 0.9), two "days" per run
//	flash     steady rate with one 8× spike over the middle fifth
//
// The caller layers Seed, ZipfS and Deadline on the returned Config.
func Preset(name string, rate float64, duration time.Duration) (Config, error) {
	if rate <= 0 {
		return Config{}, fmt.Errorf("loadgen: preset rate must be positive, got %g", rate)
	}
	if duration <= 0 {
		return Config{}, fmt.Errorf("loadgen: preset duration must be positive, got %s", duration)
	}
	cfg := Config{Duration: duration}
	switch name {
	case "constant", "steady", "":
		cfg.Shape = Constant{PerSec: rate}
	case "poisson":
		cfg.Shape = Constant{PerSec: rate}
		cfg.Poisson = true
	case "burst":
		cfg.Shape = Bursty{Base: rate, Factor: 6, On: duration / 6, Off: duration / 3}
	case "diurnal":
		cfg.Shape = Diurnal{Base: rate, Amp: 0.9, Period: duration / 2}
	case "flash":
		cfg.Shape = FlashCrowd{Base: rate, Factor: 8,
			SpikeAt: 2 * duration / 5, SpikeFor: duration / 5}
	default:
		return Config{}, fmt.Errorf("loadgen: unknown scenario %q (one of %v)", name, Scenarios())
	}
	return cfg, nil
}
