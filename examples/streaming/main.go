// Streaming end-to-end: the §5.5 experiment — a producer replays
// alarms into the partitioned broker and the paper's pre-optimization
// consumer (experiments.Replay: RDD decode, per-alarm classification on
// an executor pool) verifies them, reproducing the serializer and
// partitioning optimizations the paper walks through.
package main

import (
	"fmt"
	"log"
	"time"

	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
	"alarmverify/internal/dataset"
	"alarmverify/internal/docstore"
	"alarmverify/internal/experiments"
	"alarmverify/internal/ml"
)

func main() {
	world := dataset.NewWorld(7)
	cfg := dataset.DefaultSitasysConfig()
	cfg.NumAlarms = 60_000
	alarms := dataset.GenerateSitasys(world, cfg)
	trainSet, replay := alarms[:20_000], alarms[20_000:]

	fmt.Println("training verifier...")
	vcfg := core.DefaultVerifierConfig()
	rf := ml.DefaultRandomForestConfig()
	rf.NumTrees = 30
	rf.MaxDepth = 20
	vcfg.Classifier = ml.NewRandomForest(rf)
	verifier, err := core.Train(trainSet, vcfg)
	if err != nil {
		log.Fatal(err)
	}

	// The §5.5.2 optimization ladder.
	type config struct {
		label      string
		codec      codec.Codec
		partitions int
		workers    int
	}
	configs := []config{
		{"reflect codec, 1 partition, 1 worker (starting point)", codec.ReflectCodec{}, 1, 1},
		{"fast codec,    1 partition, 1 worker (serializer fix)", codec.FastCodec{}, 1, 1},
		{"fast codec,    8 partitions, 8 workers (partition fix)", codec.FastCodec{}, 8, 8},
	}
	fmt.Printf("\nreplaying %d alarms through each configuration:\n\n", len(replay))
	for _, c := range configs {
		b := broker.New()
		topic, err := b.CreateTopic("alarms", c.partitions)
		if err != nil {
			log.Fatal(err)
		}
		prod := core.NewProducerApp(topic, c.codec)
		prod.Threads = 4
		pstats, err := prod.Replay(replay, 0)
		if err != nil {
			log.Fatal(err)
		}

		history, err := core.NewHistory(docstore.NewDB())
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		n, t, err := experiments.Replay(b, verifier, history, c.codec, c.workers)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Printf("%s\n", c.label)
		fmt.Printf("   producer: %8.0f alarms/s   consumer: %8.0f alarms/s (%d alarms in %s)\n",
			pstats.PerSecond, float64(n)/elapsed.Seconds(), n, elapsed.Round(time.Millisecond))
		total := t.Total()
		if total > 0 {
			fmt.Printf("   breakdown: deserialize %2.0f%%  streaming %2.0f%%  history %2.0f%%  ml %2.0f%%\n\n",
				100*t.Deserialize.Seconds()/total.Seconds(),
				100*t.Streaming.Seconds()/total.Seconds(),
				100*t.History.Seconds()/total.Seconds(),
				100*t.ML.Seconds()/total.Seconds())
		}
		b.Close()
	}
	fmt.Println("paper's §5.5: serializer fix ≈2× producer throughput; partitioning unlocked ~30K alarms/s")
}
