// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5). Each benchmark runs the corresponding experiment
// at SmallScale and reports the headline quantity as a custom metric
// (accuracy in %, throughput in alarms/s), so `go test -bench=.`
// doubles as a reproduction run. EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Set ALARMVERIFY_SCALE=medium|paper to rerun at larger scales.
package alarmverify

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
	"alarmverify/internal/experiments"
	"alarmverify/internal/serve"
)

func benchScale(b *testing.B) experiments.Scale {
	b.Helper()
	name := os.Getenv("ALARMVERIFY_SCALE")
	s, err := experiments.ScaleByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchEnv caches one environment per scale across benchmarks in a
// single `go test -bench` process.
var benchEnvs = map[string]*experiments.Env{}

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	s := benchScale(b)
	env, ok := benchEnvs[s.Name]
	if !ok {
		env = experiments.NewEnv(s)
		benchEnvs[s.Name] = env
	}
	return env
}

// BenchmarkFig9AccuracyVsDelta regenerates Figure 9: verification
// accuracy against the Δt label threshold for all four algorithms.
func BenchmarkFig9AccuracyVsDelta(b *testing.B) {
	env := benchEnv(b)
	deltas := []time.Duration{time.Minute, 5 * time.Minute, 10 * time.Minute}
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig9(env, deltas)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.DeltaT == time.Minute {
				b.ReportMetric(100*r.Accuracy, "acc1m_"+string(r.Algorithm)+"_%")
			}
		}
	}
}

// BenchmarkFig10Accuracy regenerates Figure 10 (accuracy per
// algorithm per dataset); the same fits provide Table 8 timings.
func BenchmarkFig10Accuracy(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig10AndTable8(env)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Algorithm == core.RandomForest {
				b.ReportMetric(100*r.Accuracy, "rf_"+string(r.Dataset)+"_%")
			}
		}
	}
}

// BenchmarkTable8Training regenerates Table 8: per-algorithm training
// time on the Sitasys-sized dataset (LR fastest, DNN slowest).
func BenchmarkTable8Training(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig10AndTable8(env)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Dataset == experiments.Sitasys {
				b.ReportMetric(r.TrainTime.Seconds(), "train_"+string(r.Algorithm)+"_s")
			}
		}
	}
}

// BenchmarkTable9Hybrid regenerates Table 9: baseline vs the three
// a-priori risk factors across the four scenarios.
func BenchmarkTable9Hybrid(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table9(env, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scenario == experiments.ScenarioD {
				b.ReportMetric(100*r.Accuracy, "d_"+r.Treatment+"_%")
			}
		}
	}
}

// BenchmarkTable2BaselDivergence regenerates Table 2: ZIP-level true
// alarms against city-level incident counts for a multi-ZIP city.
func BenchmarkTable2BaselDivergence(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(env, time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Rows)), "districts")
		b.ReportMetric(float64(res.CityFireTotal+res.CityIntrusionTotal), "city_incidents")
	}
}

// BenchmarkFig6LFBStats regenerates Figure 6: the London incident
// statistics and false ratio.
func BenchmarkFig6LFBStats(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		perYear, ratio := experiments.Fig6(env)
		b.ReportMetric(100*ratio, "false_ratio_%")
		b.ReportMetric(float64(len(perYear)), "years")
	}
}

// BenchmarkFig7Discrepancy regenerates Figure 7: true fire/intrusion
// alarms vs collected incident reports per location.
func BenchmarkFig7Discrepancy(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7(env, 10, time.Minute)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
		b.ReportMetric(float64(rows[0].TrueAlarms), "top_true_alarms")
		b.ReportMetric(float64(rows[0].Incidents), "top_incidents")
	}
}

// BenchmarkFig8SecurityMap regenerates Figure 8: the risk map render.
func BenchmarkFig8SecurityMap(b *testing.B) {
	env := benchEnv(b)
	env.RiskModel() // build outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := experiments.Fig8(env, 72, 20); len(out) == 0 {
			b.Fatal("empty map")
		}
	}
}

// BenchmarkFig11Serializer regenerates Figure 11: producer and
// consumer throughput under the reflection-based vs specialized
// serializer.
func BenchmarkFig11Serializer(b *testing.B) {
	env := benchEnv(b)
	env.Alarms()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig11(env)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			b.ReportMetric(r.ProducerPerSec, r.Codec+"_prod_per_s")
			b.ReportMetric(r.ConsumerPerSec, r.Codec+"_cons_per_s")
		}
	}
}

// BenchmarkFig12Breakdown regenerates Figure 12: the consumer's
// per-component time shares (ML should dominate).
func BenchmarkFig12Breakdown(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(env)
		if err != nil {
			b.Fatal(err)
		}
		d, s, h, m := res.Shares()
		b.ReportMetric(100*d, "deser_%")
		b.ReportMetric(100*s, "stream_%")
		b.ReportMetric(100*h, "history_%")
		b.ReportMetric(100*m, "ml_%")
	}
}

// BenchmarkEndToEndThroughput regenerates the §5.5 experiment: the
// serial baseline against the partitioned, parallel configuration.
func BenchmarkEndToEndThroughput(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		results, err := experiments.EndToEnd(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(results[0].PerSec, "serial_per_s")
		b.ReportMetric(results[len(results)-1].PerSec, "optimized_per_s")
	}
}

// shardedVerifiers caches one trained verifier per scale for the
// sharded-throughput sweep (training is not part of the measurement).
var (
	shardedMu        sync.Mutex
	shardedVerifiers = map[string]*core.Verifier{}
)

func shardedVerifier(b *testing.B, env *experiments.Env) *core.Verifier {
	b.Helper()
	shardedMu.Lock()
	defer shardedMu.Unlock()
	if v, ok := shardedVerifiers[env.Scale.Name]; ok {
		return v
	}
	alarms := env.Alarms()
	trainN := len(alarms) / 3
	cls, err := experiments.ClassifierFor(core.RandomForest, env.Scale)
	if err != nil {
		b.Fatal(err)
	}
	vcfg := core.DefaultVerifierConfig()
	vcfg.Classifier = cls
	v, err := core.Train(alarms[:trainN], vcfg)
	if err != nil {
		b.Fatal(err)
	}
	shardedVerifiers[env.Scale.Name] = v
	return v
}

// BenchmarkShardedThroughput regenerates the §5.5.2 scaling curve for
// the sharded service: wall-clock alarms/s over a preloaded
// 8-partition topic as the shard count grows 1 → 8. A shard has no
// worker pool of its own, so the consumer-group shards — the
// partition-assignment knob the paper identifies — are the only
// parallelism under test. The history runs with a simulated
// document-store round-trip (the paper's deployment queries a remote
// MongoDB), so scaling comes from shards overlapping persist I/O with
// decode and classification, which holds even on a single core.
func BenchmarkShardedThroughput(b *testing.B) {
	env := benchEnv(b)
	verifier := shardedVerifier(b, env)
	alarms := env.Alarms()
	replay := alarms[len(alarms)/3:]
	if len(replay) > 8192 {
		replay = replay[:8192]
	}
	const partitions = 8
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			// allocs/op across the timed e2e replay: the number the
			// zero-copy hot path drives down and benchdiff gates
			// (lower is better) alongside alarms/s.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				br := broker.New()
				topic, err := br.CreateTopic("alarms", partitions)
				if err != nil {
					b.Fatal(err)
				}
				prod := core.NewProducerApp(topic, codec.FastCodec{})
				prod.Threads = 2
				if _, err := prod.Replay(replay, 0); err != nil {
					b.Fatal(err)
				}
				history, err := core.NewHistory(docstore.NewDB())
				if err != nil {
					b.Fatal(err)
				}
				history.SetSimulatedRTT(300 * time.Microsecond)
				cfg := serve.Config{
					Shards:        shards,
					PipelineDepth: 2,
					Consumer:      core.DefaultConsumerConfig(),
				}
				cfg.Consumer.MaxPerBatch = 512
				cfg.Consumer.PollTimeout = time.Millisecond
				svc, err := serve.New(br, "alarms", "bench", verifier, history, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				svc.Start()
				deadline := time.Now().Add(2 * time.Minute)
				for svc.Records() < len(replay) {
					if time.Now().After(deadline) {
						b.Fatalf("stalled at %d of %d records: %+v",
							svc.Records(), len(replay), svc.Stats().Shards)
					}
					time.Sleep(time.Millisecond)
				}
				elapsed := time.Since(start)
				b.StopTimer()
				svc.Close()
				br.Close()
				b.ReportMetric(float64(len(replay))/elapsed.Seconds(), "alarms/s")
			}
		})
	}
}

// BenchmarkDurableThroughput prices ISSUE 7's durability: the same
// sharded e2e replay into a memory-only history and a WAL-backed one
// at the default group-fsync interval. Neither cell simulates a store
// RTT — the point is the real cost of framing, appending and fsyncing
// the per-partition logs. The acceptance bar (gated via benchdiff in
// `make bench-durable`) keeps store=wal within 30% of store=memory;
// PERFORMANCE.md records the measured tax.
func BenchmarkDurableThroughput(b *testing.B) {
	env := benchEnv(b)
	verifier := shardedVerifier(b, env)
	alarms := env.Alarms()
	replay := alarms[len(alarms)/3:]
	if len(replay) > 8192 {
		replay = replay[:8192]
	}
	for _, store := range []string{"memory", "wal"} {
		b.Run("store="+store, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				br := broker.New()
				topic, err := br.CreateTopic("alarms", 8)
				if err != nil {
					b.Fatal(err)
				}
				prod := core.NewProducerApp(topic, codec.FastCodec{})
				prod.Threads = 2
				if _, err := prod.Replay(replay, 0); err != nil {
					b.Fatal(err)
				}
				var db *docstore.DB
				if store == "wal" {
					db, err = docstore.OpenDB(b.TempDir(), docstore.DurableOptions{Partitions: 4})
					if err != nil {
						b.Fatal(err)
					}
				} else {
					db = docstore.NewDBWithPartitions(4)
				}
				history, err := core.NewHistory(db)
				if err != nil {
					b.Fatal(err)
				}
				history.EnableWriteBehind(4096)
				cfg := serve.Config{
					Shards:        2,
					PipelineDepth: 2,
					Consumer:      core.DefaultConsumerConfig(),
				}
				cfg.Consumer.MaxPerBatch = 512
				cfg.Consumer.PollTimeout = time.Millisecond
				svc, err := serve.New(br, "alarms", "bench", verifier, history, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				svc.Start()
				deadline := time.Now().Add(2 * time.Minute)
				for svc.Records() < len(replay) {
					if time.Now().After(deadline) {
						b.Fatalf("stalled at %d of %d records: %+v",
							svc.Records(), len(replay), svc.Stats().Shards)
					}
					time.Sleep(time.Millisecond)
				}
				elapsed := time.Since(start)
				b.StopTimer()
				svc.Close()
				history.Close()
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				br.Close()
				b.ReportMetric(float64(len(replay))/elapsed.Seconds(), "alarms/s")
			}
		})
	}
}

// BenchmarkOverload regenerates the overload sweep: the same
// capacity-bounded sharded service faces steady, bursty and
// flash-crowd open-loop arrival processes (internal/loadgen) with
// bounded-queue load shedding off and on, reporting end-to-end p50/p99
// and drop counts per cell. The acceptance property is asserted, not
// just reported: with shedding on, the flash-crowd p99 must stay
// bounded (no queueing collapse) and beat the unprotected run
// whenever the unprotected tail actually collapsed.
func BenchmarkOverload(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Overload(env)
		if err != nil {
			b.Fatal(err)
		}
		cells := map[string]experiments.OverloadCell{}
		for _, c := range res.Cells {
			key := c.Scenario
			if c.Shed {
				key += "_shed"
			}
			cells[key] = c
			b.ReportMetric(c.P99.Seconds()*1000, "p99_"+key+"_ms")
			b.ReportMetric(float64(c.ShedRecords), "dropped_"+key)
		}
		b.ReportMetric(res.CapacityPerSec, "capacity_per_s")
		flashOff, flashOn := cells["flash"], cells["flash_shed"]
		if flashOn.P99 > 2*time.Second {
			b.Errorf("flash-crowd p99 with shedding = %s: not bounded", flashOn.P99)
		}
		if flashOff.P99 > 2*time.Second && flashOn.P99 >= flashOff.P99 {
			b.Errorf("unprotected flash p99 collapsed to %s but shedding did not improve it (%s)",
				flashOff.P99, flashOn.P99)
		}
	}
}

// BenchmarkAblationCacheDecoded measures the §6.2 lesson: consumer
// batch time with and without caching the deserialized stream.
func BenchmarkAblationCacheDecoded(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		with, without, err := experiments.AblationCache(env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(with.Seconds()*1000, "cached_ms")
		b.ReportMetric(without.Seconds()*1000, "uncached_ms")
	}
}

// BenchmarkAblationDeltaT measures label-heuristic sensitivity beyond
// Figure 9's grid: the class balance across Δt.
func BenchmarkAblationDeltaT(b *testing.B) {
	env := benchEnv(b)
	for i := 0; i < b.N; i++ {
		rates := experiments.AblationDeltaTBalance(env,
			[]time.Duration{30 * time.Second, time.Minute, 5 * time.Minute, 10 * time.Minute})
		for dt, rate := range rates {
			b.ReportMetric(100*rate, "true_rate_"+dt.String()+"_%")
		}
	}
}
