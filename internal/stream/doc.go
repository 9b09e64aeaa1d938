// Package stream is the micro-batch RDD engine the experiments replay
// the paper's pre-optimization consumer on — the role Spark Streaming
// plays in the paper (§4.2, "Streaming Component"). Serving does not
// use it: the sharded service (internal/serve) runs internal/core's
// pooled drain → decode → classify → persist stages instead.
//
// The engine keeps the parts of the Spark model the paper's lessons
// depend on:
//
//   - RDD (rdd.go) — a lazy, partitioned dataset. Transformations
//     (Map, Filter, Distinct, ReduceByKey) only record lineage; the
//     action Collect computes partitions on a worker pool. Without
//     Cache, every action recomputes the lineage — exactly the §6.2
//     pitfall ("Cache data that will be reused": the consumer
//     deserialized its input twice because the stream was reused for
//     both ML and history without caching).
//   - Pool (pool.go) — the fixed-size executor pool RDD actions run
//     on; its size is the engine's executor-core count, and a pool of 1
//     reproduces the serial consumer of §5.5.2.
//   - BrokerSource (source.go) — turns a broker consumer's copying
//     polls into one RDD per micro-batch, one RDD partition per broker
//     partition (the Direct-DStream mapping), so a topic with one
//     partition is processed serially: the §5.5.2 "Kafka
//     Optimization" lesson.
//
// See ARCHITECTURE.md at the repository root for how the replays use
// it (internal/experiments).
package stream
