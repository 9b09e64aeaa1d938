package experiments

import (
	"fmt"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
	"alarmverify/internal/loadgen"
	"alarmverify/internal/metrics"
	"alarmverify/internal/serve"
)

// OverloadCell is one (scenario × shedding) measurement: offered
// load, what the service processed vs dropped, and the end-to-end
// latency quantiles of the processed records.
type OverloadCell struct {
	Scenario  string
	Shed      bool
	Offered   int
	Sent      int
	Processed int
	// ShedRecords counts records dropped by bounded-queue shedding.
	ShedRecords int64
	// PerSec is the service's wall-clock processing rate over the cell.
	PerSec float64
	// P50/P95/P99 are enqueue-to-commit latencies of processed records.
	P50, P95, P99 time.Duration
}

// OverloadResult is the full sweep plus the calibration context that
// sized it.
type OverloadResult struct {
	// CapacityPerSec is the measured steady-state service capacity the
	// scenario rates were derived from, making the sweep reproduce the
	// same overload ratios on any hardware.
	CapacityPerSec float64
	// BaseRate is the per-scenario base arrival rate (≈ a third of
	// the blast-measured capacity; see OverloadWithConfig for why).
	BaseRate float64
	// ShedQueue is the backlog bound used in the shed-on cells.
	ShedQueue int
	// Duration is the offered-stream length per cell.
	Duration time.Duration
	Cells    []OverloadCell
}

// OverloadConfig sizes the sweep; zero values take defaults from the
// scale.
type OverloadConfig struct {
	// Duration is the offered-stream length per cell (default by
	// scale: 2.5s small, 4s medium, 8s paper).
	Duration time.Duration
	// CalibrationRecords sizes the capacity measurement (default 4096).
	CalibrationRecords int
	// DrainTimeout bounds the post-stream backlog drain per cell
	// (default 60s).
	DrainTimeout time.Duration
}

// overloadService builds the deliberately capacity-bounded service
// under test: one shard, each of its pipeline stages one goroutine,
// drains of up to 1024 records, and a simulated remote-docstore
// round-trip so persist costs are
// stable across machines. The same configuration serves calibration
// and every sweep cell — only the shed bound varies.
func overloadService(b *broker.Broker, v *core.Verifier, shedQueue int,
	m *metrics.Pipeline) (*serve.Service, error) {
	history, err := core.NewHistory(docstore.NewDB())
	if err != nil {
		return nil, err
	}
	history.SetSimulatedRTT(300 * time.Microsecond)
	cfg := serve.DefaultConfig()
	cfg.Shards = 1
	cfg.ShedQueue = shedQueue
	cfg.Consumer.MaxPerBatch = 1024
	cfg.Consumer.PollTimeout = 5 * time.Millisecond
	cfg.Consumer.Metrics = m
	return serve.New(b, "alarms", "overload", v, history, cfg)
}

// waitAccounted polls until every sent record is accounted for —
// processed or shed. (Broker lag is not enough: positions advance at
// drain time, long before classify and persist finish.)
func waitAccounted(svc *serve.Service, sent int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if err := svc.Err(); err != nil {
			return err
		}
		st := svc.Stats()
		if st.Records+int(st.ShedRecords) >= sent {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d records accounted for within %s",
				st.Records+int(st.ShedRecords), sent, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// overloadCapacity measures steady-state service throughput over a
// preloaded backlog — the denominator every scenario rate is derived
// from.
func overloadCapacity(v *core.Verifier, replay []alarm.Alarm, n int) (float64, error) {
	if n > len(replay) {
		n = len(replay)
	}
	b, _, err := preload(replay[:n], 4, 2, codec.FastCodec{})
	if err != nil {
		return 0, err
	}
	defer b.Close()
	svc, err := overloadService(b, v, 0, nil)
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	start := time.Now()
	svc.Start()
	if err := waitAccounted(svc, n, 60*time.Second); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	svc.Stop()
	if elapsed <= 0 {
		return 0, fmt.Errorf("calibration elapsed %s", elapsed)
	}
	return float64(n) / elapsed.Seconds(), nil
}

// overloadCell offers one scenario's open-loop stream to a fresh
// service and measures what came out the other side.
func overloadCell(v *core.Verifier, replay []alarm.Alarm, scenario string,
	base float64, shed bool, shedQueue int, cfg OverloadConfig) (*OverloadCell, error) {
	lcfg, err := loadgen.Preset(scenario, base, cfg.Duration)
	if err != nil {
		return nil, err
	}
	lcfg.Seed = 1871
	sched, err := loadgen.Schedule(lcfg, replay)
	if err != nil {
		return nil, err
	}

	b := broker.New()
	defer b.Close()
	topic, err := b.CreateTopic("alarms", 4)
	if err != nil {
		return nil, err
	}
	bound := 0
	if shed {
		bound = shedQueue
	}
	m := metrics.NewPipeline()
	svc, err := overloadService(b, v, bound, m)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	svc.Start()
	start := time.Now()
	driver := &loadgen.Driver{Sink: loadgen.NewBrokerSink(topic, codec.FastCodec{}), Workers: 2}
	st := driver.Run(sched)
	if err := waitAccounted(svc, st.Sent, cfg.DrainTimeout); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	svc.Stop()
	if err := svc.Err(); err != nil {
		return nil, err
	}

	stats := svc.Stats()
	e2e := m.Snapshot().Stages[metrics.StageE2E]
	cell := &OverloadCell{
		Scenario:    scenario,
		Shed:        shed,
		Offered:     st.Scheduled,
		Sent:        st.Sent,
		Processed:   stats.Records,
		ShedRecords: stats.ShedRecords,
		P50:         e2e.Quantile(0.50),
		P95:         e2e.Quantile(0.95),
		P99:         e2e.Quantile(0.99),
	}
	if elapsed > 0 {
		cell.PerSec = float64(stats.Records) / elapsed.Seconds()
	}
	if got := cell.Processed + int(cell.ShedRecords); got != cell.Sent {
		return nil, fmt.Errorf("%s shed=%v: processed %d + shed %d != sent %d",
			scenario, shed, cell.Processed, cell.ShedRecords, cell.Sent)
	}
	return cell, nil
}

// Overload runs the overload sweep at the scale's default sizing.
func Overload(env *Env) (*OverloadResult, error) {
	return OverloadWithConfig(env, OverloadConfig{})
}

// OverloadWithConfig quantifies the overload story: the same
// capacity-bounded service faces steady, bursty and flash-crowd
// arrival processes, with bounded-queue load shedding off and on.
// Without shedding, a flash crowd's backlog drains late and e2e p99
// collapses into seconds of queueing delay; with the backlog bound,
// the oldest queued records are dropped (and counted) and p99 stays
// bounded. EXPERIMENTS.md records the measured sweep.
func OverloadWithConfig(env *Env, cfg OverloadConfig) (*OverloadResult, error) {
	if cfg.Duration <= 0 {
		switch env.Scale.Name {
		case "paper":
			cfg.Duration = 8 * time.Second
		case "medium":
			cfg.Duration = 4 * time.Second
		default:
			cfg.Duration = 2500 * time.Millisecond
		}
	}
	if cfg.CalibrationRecords <= 0 {
		cfg.CalibrationRecords = 4096
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 60 * time.Second
	}
	verifier, replay, err := streamVerifier(env, len(env.Alarms()))
	if err != nil {
		return nil, err
	}

	capacity, err := overloadCapacity(verifier, replay, cfg.CalibrationRecords)
	if err != nil {
		return nil, err
	}
	// The blast calibration processes one deep backlog in large
	// amortized batches; paced live traffic drains in small batches
	// whose per-batch costs (store round-trips per device histogram)
	// are proportionally higher. A third of blast capacity keeps the
	// steady cell healthy while the 6–8× scenario spikes still offer
	// a multiple of what the service can absorb.
	base := capacity / 3
	if base < 100 {
		base = 100
	}
	shedQueue := int(capacity / 4)
	if shedQueue < 256 {
		shedQueue = 256
	}

	res := &OverloadResult{
		CapacityPerSec: capacity,
		BaseRate:       base,
		ShedQueue:      shedQueue,
		Duration:       cfg.Duration,
	}
	for _, scenario := range []string{"constant", "burst", "flash"} {
		for _, shed := range []bool{false, true} {
			cell, err := overloadCell(verifier, replay, scenario, base, shed, shedQueue, cfg)
			if err != nil {
				return nil, fmt.Errorf("overload %s shed=%v: %w", scenario, shed, err)
			}
			res.Cells = append(res.Cells, *cell)
		}
	}
	return res, nil
}

// RenderOverload formats the sweep.
func RenderOverload(r *OverloadResult) string {
	header := []string{"scenario", "shed", "offered", "sent", "processed", "dropped", "p50", "p95", "p99"}
	var rows [][]string
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Scenario, fmt.Sprintf("%v", c.Shed),
			fmt.Sprintf("%d", c.Offered), fmt.Sprintf("%d", c.Sent),
			fmt.Sprintf("%d", c.Processed),
			fmt.Sprintf("%d", c.ShedRecords),
			fmtDur(c.P50), fmtDur(c.P95), fmtDur(c.P99),
		})
	}
	return fmt.Sprintf("Overload sweep: capacity ≈ %.0f alarms/s, base rate %.0f/s, shed bound %d records, %s per cell\n",
		r.CapacityPerSec, r.BaseRate, r.ShedQueue, r.Duration) +
		renderTable(header, rows)
}
