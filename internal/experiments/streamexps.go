package experiments

import (
	"fmt"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
	"alarmverify/internal/ml"
)

// Fig11Result measures one serializer's producer and consumer
// throughput (alarms per second), the Figure 11 comparison.
type Fig11Result struct {
	Codec            string
	ProducerPerSec   float64
	ConsumerPerSec   float64
	AvgMessageBytes  float64
	ProducedMessages int
}

// Fig11 reproduces the Jackson-vs-Gson serializer experiment: the
// same alarm stream is produced into the broker and consumed
// (deserialize-only) through both codecs.
func Fig11(env *Env) ([]Fig11Result, error) {
	alarms := env.Alarms()
	if len(alarms) > env.Scale.StreamAlarms {
		alarms = alarms[:env.Scale.StreamAlarms]
	}
	var out []Fig11Result
	for _, c := range []codec.Codec{codec.ReflectCodec{}, codec.FastCodec{}} {
		b, stats, err := preload(alarms, 1, 1, c)
		if err != nil {
			return nil, err
		}
		defer b.Close()
		// Consumer side: drain and deserialize everything.
		topic, err := b.Topic("alarms")
		if err != nil {
			return nil, err
		}
		cons, err := broker.NewConsumer(b, "fig11", topic, "c1")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		decoded := 0
		var a alarm.Alarm
		var recs []broker.Record
		for {
			var lease *broker.Lease
			recs, lease, err = cons.PollLeased(4096, 10*time.Millisecond, recs[:0])
			for i := 0; i < len(recs) && err == nil; i++ {
				err = c.Unmarshal(recs[i].Value, &a)
			}
			lease.Release()
			if err != nil || len(recs) == 0 {
				break
			}
			decoded += len(recs)
		}
		consElapsed := time.Since(start)
		cons.Close()
		if err != nil {
			return nil, err
		}
		res := Fig11Result{
			Codec:            c.Name(),
			ProducerPerSec:   stats.PerSecond,
			ProducedMessages: stats.Sent,
		}
		if stats.Sent > 0 {
			res.AvgMessageBytes = float64(stats.Bytes) / float64(stats.Sent)
		}
		if consElapsed > 0 {
			res.ConsumerPerSec = float64(decoded) / consElapsed.Seconds()
		}
		out = append(out, res)
	}
	return out, nil
}

// RenderFig11 formats the serializer comparison.
func RenderFig11(results []Fig11Result) string {
	header := []string{"codec", "producer [alarms/s]", "consumer [alarms/s]", "avg bytes"}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{
			r.Codec,
			fmt.Sprintf("%.0f", r.ProducerPerSec),
			fmt.Sprintf("%.0f", r.ConsumerPerSec),
			fmt.Sprintf("%.0f", r.AvgMessageBytes),
		})
	}
	return "Figure 11: serializer throughput (reflect = Jackson analog, fast = Gson analog)\n" +
		renderTable(header, rows)
}

// Fig12Result is the consumer time breakdown per component.
type Fig12Result struct {
	Times   core.ComponentTimes
	Records int
}

// Shares returns each component's share of total batch time.
func (f Fig12Result) Shares() (deser, streaming, history, mlShare float64) {
	total := f.Times.Total().Seconds()
	if total <= 0 {
		return 0, 0, 0, 0
	}
	return f.Times.Deserialize.Seconds() / total,
		f.Times.Streaming.Seconds() / total,
		f.Times.History.Seconds() / total,
		f.Times.ML.Seconds() / total
}

// streamVerifier trains the verifier used by the streaming
// experiments and returns it with up to replayN of the alarms after its
// training set, to replay. Serving cost must match the production
// model, so the forest uses the paper's Table 3 shape (50 trees, depth
// 30); the training set is capped at 5 000 alarms because only
// inference speed matters here.
func streamVerifier(env *Env, replayN int) (*core.Verifier, []alarm.Alarm, error) {
	alarms := env.Alarms()
	trainN := min(5_000, len(alarms)/2)
	cfg := core.DefaultVerifierConfig()
	cfg.Classifier = ml.NewRandomForest(ml.DefaultRandomForestConfig())
	v, err := core.Train(alarms[:trainN], cfg)
	if err != nil {
		return nil, nil, err
	}
	replay := alarms[trainN:]
	return v, replay[:min(replayN, len(replay))], nil
}

// Fig12 reproduces the consumer component breakdown: a 10-second-
// window-sized batch is processed end to end and the per-component
// times recorded.
func Fig12(env *Env) (*Fig12Result, error) {
	verifier, replay, err := streamVerifier(env, env.Scale.StreamAlarms)
	if err != nil {
		return nil, err
	}
	b, _, err := preload(replay, env.Scale.Partitions, 2, codec.FastCodec{})
	if err != nil {
		return nil, err
	}
	defer b.Close()
	history, err := core.NewHistory(docstore.NewDB())
	if err != nil {
		return nil, err
	}
	// The serving stages with per-alarm classification
	// (ClassifyBatch=1), as the paper's consumer classified, so the
	// component shares match Figure 12's ML-dominated breakdown rather
	// than the vectorized chunks serving adds on top.
	fig12Cfg := core.DefaultConsumerConfig()
	fig12Cfg.ClassifyBatch = 1
	cons, err := core.NewConsumerApp(b, "alarms", "fig12", "c1", verifier, history, fig12Cfg)
	if err != nil {
		return nil, err
	}
	defer cons.Close()
	n, err := cons.ProcessBatches(1)
	if err != nil {
		return nil, err
	}
	return &Fig12Result{Times: cons.Times(), Records: n}, nil
}

// RenderFig12 formats the breakdown.
func RenderFig12(r *Fig12Result) string {
	d, s, h, m := r.Shares()
	header := []string{"component", "time", "share [%]"}
	rows := [][]string{
		{"deserialization", fmtDur(r.Times.Deserialize), pct(d)},
		{"streaming (distinct devices)", fmtDur(r.Times.Streaming), pct(s)},
		{"history (MongoDB-role queries)", fmtDur(r.Times.History), pct(h)},
		{"machine learning", fmtDur(r.Times.ML), pct(m)},
	}
	return fmt.Sprintf("Figure 12: consumer time breakdown (%d alarms in batch)\n", r.Records) +
		renderTable(header, rows)
}

// E2EResult measures end-to-end consumer throughput for one
// configuration — the §5.5 experiment chain.
type E2EResult struct {
	Label      string
	Partitions int
	Workers    int
	Records    int
	PerSec     float64
}

// EndToEnd reproduces the §5.5.2 optimization story on the replay
// consumer: serial consumer on an unpartitioned topic, then the
// partitioned + parallel configuration.
func EndToEnd(env *Env) ([]E2EResult, error) {
	verifier, replay, err := streamVerifier(env, env.Scale.StreamAlarms)
	if err != nil {
		return nil, err
	}
	configs := []struct {
		label      string
		partitions int
		workers    int
	}{
		{"1 partition, 1 worker (pre-optimization)", 1, 1},
		{fmt.Sprintf("%d partitions, 1 worker", env.Scale.Partitions), env.Scale.Partitions, 1},
		{fmt.Sprintf("%d partitions, %d workers (optimized)", env.Scale.Partitions, env.Scale.Partitions),
			env.Scale.Partitions, env.Scale.Partitions},
	}
	var out []E2EResult
	for _, cfgSpec := range configs {
		// Four producers: the producer must not be the bottleneck.
		b, _, err := preload(replay, cfgSpec.partitions, 4, codec.FastCodec{})
		if err != nil {
			return nil, err
		}
		// The replay consumer classifies alarm by alarm, as the paper's
		// consumer did, on its executor pool of the row's workers.
		r, err := newReplay(b, "e2e", verifier, nil, codec.FastCodec{}, cfgSpec.workers, true)
		if err != nil {
			b.Close()
			return nil, err
		}
		start := time.Now()
		n, err := r.batch()
		elapsed := time.Since(start)
		r.close()
		b.Close()
		if err != nil {
			return nil, err
		}
		res := E2EResult{
			Label:      cfgSpec.label,
			Partitions: cfgSpec.partitions,
			Workers:    cfgSpec.workers,
			Records:    n,
		}
		if elapsed > 0 {
			res.PerSec = float64(n) / elapsed.Seconds()
		}
		out = append(out, res)
	}
	return out, nil
}

// RenderEndToEnd formats the throughput ladder.
func RenderEndToEnd(results []E2EResult) string {
	header := []string{"configuration", "alarms", "throughput [alarms/s]"}
	var rows [][]string
	for _, r := range results {
		rows = append(rows, []string{r.Label, fmt.Sprintf("%d", r.Records), fmt.Sprintf("%.0f", r.PerSec)})
	}
	return "End-to-end consumer throughput (§5.5: ~30K/s at paper scale on their hardware)\n" +
		renderTable(header, rows)
}
