package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
	"alarmverify/internal/metrics"
	"alarmverify/internal/netbroker"
)

// perLayer are the metrics of single layers, printed by a traced run.
// They have no bound: they say where an end-to-end cell's time goes and
// which layer a change moved. Names are <module>.<metric>; ns and
// allocs are per alarm unless the name says otherwise. README.md lists
// which end-to-end cell each one should move.
var perLayer = []metricDef{
	{Name: "codec.marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "codec.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "codec.decode_allocs", Unit: "count", Better: "lower"},
	{Name: "codec.bytes_per_alarm", Unit: "B", Better: "lower"},

	{Name: "broker.append_ns", Unit: "ns", Better: "lower"},
	{Name: "broker.poll_ns", Unit: "ns", Better: "lower"},
	{Name: "broker.records_per_poll", Unit: "count", Better: "higher"},
	{Name: "broker.empty_poll_ratio", Unit: "ratio", Better: "lower"},
	{Name: "broker.commit_us_per_call", Unit: "us", Better: "lower"},

	{Name: "core.drain_ns", Unit: "ns", Better: "lower"},
	{Name: "core.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "core.classify_ns", Unit: "ns", Better: "lower"},
	{Name: "core.persist_ns", Unit: "ns", Better: "lower"},
	{Name: "core.commit_ns", Unit: "ns", Better: "lower"},
	{Name: "core.records_per_batch", Unit: "count", Better: "higher"},
	{Name: "core.stage_residual_pct", Unit: "%", Better: "lower"},
	{Name: "core.history_record_ns", Unit: "ns", Better: "lower"},
	{Name: "core.history_record_allocs", Unit: "count", Better: "lower"},
	{Name: "core.device_histograms_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "core.query_top_devices_ms", Unit: "ms", Better: "lower"},
	{Name: "core.query_recent_ms", Unit: "ms", Better: "lower"},
	{Name: "core.query_by_location_ms", Unit: "ms", Better: "lower"},
	{Name: "core.query_device_histogram_us", Unit: "us", Better: "lower"},
	{Name: "core.query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.query_samples", Unit: "count", Better: "higher"},

	{Name: "ml.train_s", Unit: "s", Better: "lower"},
	{Name: "ml.verify_ns", Unit: "ns", Better: "lower"},
	{Name: "ml.verify_allocs", Unit: "count", Better: "lower"},
	{Name: "ml.holdout_accuracy", Unit: "ratio", Better: "higher"},

	{Name: "docstore.insert_ns_per_doc.mem", Unit: "ns", Better: "lower"},
	{Name: "docstore.insert_ns_per_doc.wal", Unit: "ns", Better: "lower"},
	{Name: "docstore.insert_allocs_per_doc", Unit: "count", Better: "lower"},
	{Name: "docstore.wal_bytes_per_doc", Unit: "B", Better: "lower"},
	{Name: "docstore.wal_sync_ms", Unit: "ms", Better: "lower"},
	{Name: "docstore.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "docstore.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "docstore.aggregate_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "docstore.aggregate_cached_us", Unit: "us", Better: "lower"},

	{Name: "serve.alarms_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.busy_share.decode", Unit: "ratio", Better: "lower"},
	{Name: "serve.busy_share.classify", Unit: "ratio", Better: "lower"},
	{Name: "serve.busy_share.persist", Unit: "ratio", Better: "lower"},
	{Name: "serve.busy_share.commit", Unit: "ratio", Better: "lower"},
	{Name: "serve.batches", Unit: "count", Better: "lower"},
	{Name: "serve.e2e_samples", Unit: "count", Better: "higher"},
	{Name: "serve.e2e_drift_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.e2e_p90_beside_queries_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.model_predicted_alarms_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.model_residual_pct", Unit: "%", Better: "lower"},

	{Name: "netbroker.send_us.rf1", Unit: "us", Better: "lower"},
	{Name: "netbroker.send_allocs.rf1", Unit: "count", Better: "lower"},
	{Name: "netbroker.ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "netbroker.ack_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "netbroker.fetch_us_per_record", Unit: "us", Better: "lower"},
	{Name: "netbroker.fetch_empty_ratio", Unit: "ratio", Better: "lower"},
	{Name: "netbroker.commit_ms_per_call", Unit: "ms", Better: "lower"},
	{Name: "netbroker.frame_ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "netbroker.replica_lag_records_max", Unit: "count", Better: "lower"},
	{Name: "netbroker.follower_catchup_ms", Unit: "ms", Better: "lower"},

	{Name: "loadgen.max_late_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.p99_late_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.cpu_us_per_alarm", Unit: "us", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// traced is a traced run. End-to-end cells are measured with tracing
// off — as are the two that gate nothing, saturation throughput and
// query latency — so the workload first runs untraced for half the
// seconds, then again with spans recorded at the probe's seams and the
// program's stage histograms attached; the difference between the two
// is the tracing overhead. A serial stage pass and direct calls into
// each layer follow; they do not depend on the workload.
func (r *run) traced(opt options) (map[string]float64, error) {
	plain, err := r.pass(opt.seconds/2, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	tr := newTracer()
	gc0 := r.memStats()
	pass, err := r.pass(opt.seconds/2, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	gc1 := r.memStats()
	m := map[string]float64{
		"ml.train_s":                      r.e.trainS,
		"ml.holdout_accuracy":             r.e.accuracy,
		"serve.batches":                   float64(pass.closed.batches),
		"serve.e2e_samples":               float64(len(pass.alone.e2eMS)),
		"serve.e2e_drift_ratio":           pass.alone.drift,
		"serve.e2e_p90_beside_queries_ms": quantile(pass.beside.e2eMS, 0.90),
		"loadgen.max_late_ms":             quantile(pass.alone.lateMS, 1),
		"loadgen.p99_late_ms":             quantile(pass.alone.lateMS, 0.99),
		"proc.cpu_us_per_alarm":           float64(pass.closed.cpu.Microseconds()) / float64(pass.closed.alarms),
		"proc.gc_cycles":                  float64(gc1.NumGC - gc0.NumGC),
		"proc.gc_pause_ms":                float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6,
		"core.query_p50_ms":               median(plain.beside.dashboardMS()),
		"core.query_samples":              float64(len(plain.beside.dashboardMS())),
		"core.query_top_devices_ms":       median(pass.beside.queryMS["top_devices"]),
		"core.query_recent_ms":            median(pass.beside.queryMS["recent"]),
		"core.query_by_location_ms":       median(pass.beside.queryMS["by_location"]),
		"core.query_device_histogram_us":  1000 * median(pass.beside.queryMS["device_histogram"]),
	}
	measured, tracedRate := median(plain.closed.perSec), median(pass.closed.perSec)
	m["serve.alarms_per_s"] = measured
	m["trace.overhead_pct"] = 100 * (measured - tracedRate) / measured
	for _, stage := range []metrics.Stage{metrics.StageDecode, metrics.StageClassify, metrics.StagePersist, metrics.StageCommit} {
		m["serve.busy_share."+string(stage)] = pass.closed.busy[stage].Seconds() / (pass.closed.elapsed.Seconds() * shards)
	}

	if err := r.serialPass(tr, m); err != nil {
		return nil, fmt.Errorf("serial stage pass: %w", err)
	}
	m["serve.model_residual_pct"] = 100 * (m["serve.model_predicted_alarms_per_s"] - measured) / measured
	if err := r.layerCalls(m); err != nil {
		return nil, fmt.Errorf("layer calls: %w", err)
	}

	wire := pass.alone
	if !r.w.wire {
		// The replica-set layers are not on this workload's path; time
		// them on a short open-loop phase of their own.
		if wire, err = r.wireProbe(); err != nil {
			return nil, fmt.Errorf("wire probe: %w", err)
		}
	}
	m["netbroker.ack_p50_ms"] = quantile(wire.sendMS, 0.50)
	m["netbroker.ack_p90_ms"] = quantile(wire.sendMS, 0.90)
	m["netbroker.fetch_us_per_record"] = float64(wire.seam.fullPollTime.Microseconds()) / float64(wire.seam.polled)
	m["netbroker.fetch_empty_ratio"] = float64(wire.seam.emptyPolls) / float64(wire.seam.polls)
	m["netbroker.commit_ms_per_call"] = ms(wire.seam.commitTime) / float64(wire.seam.commits)
	m["netbroker.replica_lag_records_max"] = float64(wire.lagMax)
	m["netbroker.follower_catchup_ms"] = wire.catchUp

	m["proc.heap_peak_mb"] = float64(r.heapPeak) / (1 << 20)
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	return m, tr.write(filepath.Join(opt.outDir, "trace_"+r.w.name+".json"))
}

// wireProbe runs a short open-loop phase over a replica set of its own.
func (r *run) wireProbe() (pacedStats, error) {
	d, err := r.e.deployWire(0, nil)
	if err != nil {
		return pacedStats{}, err
	}
	defer func() { r.check("close", d.close()) }()
	d.svc.Start()
	dur := time.Duration(min(r.seconds/4, 3) * float64(time.Second))
	if _, err := r.paced(d, r.e.sc.wireRate, dur/4, r.e.seed+300, false); err != nil {
		return pacedStats{}, err
	}
	st, err := r.paced(d, r.e.sc.wireRate, dur, r.e.seed+400, false)
	if err != nil {
		return st, err
	}
	r.verify(d, false)
	return st, nil
}

// serialPass drives one consumer application by hand over a preloaded
// backlog, one stage call at a time on one goroutine, with a span per
// call under a per-batch parent. With nothing overlapping, each stage's
// span is its cost; what the batch span does not cover is the residual.
// The costs feed the throughput model: the pipeline cannot go faster
// than its cores divided by the work per alarm, nor than its shards
// divided by the slowest of the three goroutines each shard runs.
func (r *run) serialPass(tr *tracer, m map[string]float64) error {
	e := r.e
	br := broker.New()
	defer func() { _ = br.Close() }() // in-memory log: nothing to flush
	topic, err := br.CreateTopic(topicName, partitions)
	if err != nil {
		return err
	}
	p := newProbe(partitions, false, tr)
	backlog := e.take(e.sc.serialAlarms)
	n := float64(len(backlog))
	producer := core.NewProducerAppFor(probeSender{broker.NewProducer(topic), p}, codec.FastCodec{})
	if _, err := producer.Replay(backlog, 0); err != nil {
		return err
	}
	m["broker.append_ns"] = float64(p.sendTime.Nanoseconds()) / n

	cons, err := broker.NewConsumer(br, "serial", topic, "serial-0")
	if err != nil {
		return err
	}
	history, err := core.NewHistory(docstore.NewDBWithPartitions(storePartitions))
	if err != nil {
		return err
	}
	history.EnableWriteBehind(writeBehind)
	defer history.Close()
	app := core.NewConsumerAppFor(&probeConsumer{cons, p}, partitions, e.verifier, history, serveConfig(nil).Consumer)
	defer app.Close()

	spent := make(map[string]time.Duration)
	var batch int64
	var firstErr error
	call := func(name string, f func() error) {
		start := time.Now()
		id, prev := tr.open(name, batch, start)
		if err := f(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", name, err)
		}
		end := time.Now()
		tr.close(id, prev, end)
		spent[name] += end.Sub(start)
	}
	runtime.GC()
	for done := 0; done < len(backlog) && firstErr == nil; batch++ {
		call("core.batch", func() error {
			var b *core.Batch
			call("core.drain", func() error { b = app.Drain(); return nil })
			call("core.decode", func() error { app.Decode(b); return nil })
			if b.Len() == 0 {
				app.ReleaseBatch(b)
				return fmt.Errorf("backlog ran dry at %d of %d alarms", done, len(backlog))
			}
			call("core.classify", func() error { return app.Classify(b) })
			call("core.persist", func() error { return app.Persist(b) })
			call("core.commit", func() error { return app.CommitBatch(b) })
			done += b.Len()
			app.ReleaseBatch(b)
			return nil
		})
	}
	if firstErr != nil {
		return firstErr
	}
	r.attempted += int64(len(backlog))

	// A span's self time is its duration minus what its children cover:
	// the polls under drain, the broker's commit under commit, the five
	// stages under the batch.
	seam := p.seam()
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	stage := map[string]float64{
		"core.drain":    per(spent["core.drain"] - seam.pollTime),
		"core.decode":   per(spent["core.decode"]),
		"core.classify": per(spent["core.classify"]),
		"core.persist":  per(spent["core.persist"]),
		"core.commit":   per(spent["core.commit"] - seam.commitTime),
	}
	sum := per(seam.pollTime + seam.commitTime)
	for name, ns := range stage {
		m[name+"_ns"] = ns
		sum += ns
	}
	m["core.records_per_batch"] = n / float64(batch)
	m["core.stage_residual_pct"] = 100 * (per(spent["core.batch"]) - sum) / per(spent["core.batch"])
	m["broker.poll_ns"] = per(seam.pollTime)
	m["broker.records_per_poll"] = float64(seam.polled) / float64(seam.polls)
	m["broker.empty_poll_ratio"] = float64(seam.emptyPolls) / float64(seam.polls)
	m["broker.commit_us_per_call"] = float64(seam.commitTime.Microseconds()) / float64(seam.commits)

	// A shard runs intake (drain + decode), classify and persist (+
	// commit) on a goroutine each.
	slowest := max(per(spent["core.drain"]+spent["core.decode"]), per(spent["core.classify"]), per(spent["core.persist"]+spent["core.commit"]))
	m["serve.model_predicted_alarms_per_s"] = 1e9 * min(float64(runtime.GOMAXPROCS(0))/sum, shards/slowest)
	return nil
}

// alarmDocument boxes an alarm the way core.History does before it
// hands it to the store, so the direct store calls insert what the
// serving path inserts.
func alarmDocument(a *alarm.Alarm) docstore.Doc {
	return docstore.Doc{
		"alarmId": a.ID, "deviceMac": a.DeviceMAC, "zip": a.ZIP,
		"ts": float64(a.Timestamp.Unix()), "duration": a.Duration,
		"alarmType": a.Type.String(), "objectType": a.ObjectType.String(),
		"sensorType": a.SensorType, "swVersion": a.SoftwareVersion,
	}
}

// timeAllocs runs f and returns how long it took and how many heap
// objects it allocated.
func timeAllocs(f func() error) (time.Duration, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := f()
	took := time.Since(start)
	runtime.ReadMemStats(&m1)
	return took, m1.Mallocs - m0.Mallocs, err
}

// layerCalls times each remaining layer by calling it directly on the
// same alarms the workloads replay, in the batch sizes the serving path
// uses. Only store calls production code makes are used.
func (r *run) layerCalls(m map[string]float64) error {
	e := r.e
	alarms := e.take(e.sc.layerAlarms)
	n := float64(len(alarms))
	perAlarm := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	batches := func(f func(batch []alarm.Alarm) error) error {
		for lo := 0; lo < len(alarms); lo += maxPerBatch {
			if err := f(alarms[lo:min(lo+maxPerBatch, len(alarms))]); err != nil {
				return err
			}
		}
		return nil
	}

	// codec
	cdc := codec.FastCodec{}
	payloads := make([][]byte, len(alarms))
	var buf []byte
	took, _, err := timeAllocs(func() error {
		for i := range alarms {
			var err error
			if buf, err = cdc.Marshal(buf[:0], &alarms[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["codec.marshal_ns"] = perAlarm(took)
	var bytes int
	for i := range alarms {
		if payloads[i], err = cdc.Marshal(nil, &alarms[i]); err != nil {
			return err
		}
		bytes += len(payloads[i])
	}
	m["codec.bytes_per_alarm"] = float64(bytes) / n
	scratch := codec.NewScratch()
	decode := func() error {
		var a alarm.Alarm
		for _, p := range payloads {
			if err := cdc.UnmarshalScratch(p, &a, scratch); err != nil {
				return err
			}
		}
		return nil
	}
	if err := decode(); err != nil { // first sighting of each string fills the interner
		return err
	}
	took, allocs, err := timeAllocs(decode)
	if err != nil {
		return err
	}
	m["codec.decode_ns"], m["codec.decode_allocs"] = perAlarm(took), float64(allocs)/n

	// ml: the classify stage's call, in its chunk size
	chunk := core.DefaultConsumerConfig().ClassifyBatch
	out := make([]alarm.Verification, chunk)
	verify := func() error {
		for lo := 0; lo < len(alarms); lo += chunk {
			if err := e.verifier.VerifyBatchInto(alarms[lo:min(lo+chunk, len(alarms))], out); err != nil {
				return err
			}
		}
		return nil
	}
	if err := e.verifier.VerifyBatchInto(alarms[:min(chunk, len(alarms))], out); err != nil { // sizes the pooled matrix
		return err
	}
	if took, allocs, err = timeAllocs(verify); err != nil {
		return err
	}
	m["ml.verify_ns"], m["ml.verify_allocs"] = perAlarm(took), float64(allocs)/n

	// core.History: the persist stage's two calls
	history, err := core.NewHistory(docstore.NewDBWithPartitions(storePartitions))
	if err != nil {
		return err
	}
	history.EnableWriteBehind(writeBehind)
	defer history.Close()
	took, allocs, _ = timeAllocs(func() error {
		return batches(func(b []alarm.Alarm) error { history.RecordBatch(b); history.Flush(); return nil })
	})
	m["core.history_record_ns"], m["core.history_record_allocs"] = perAlarm(took), float64(allocs)/n
	var calls int
	took, _, err = timeAllocs(func() error {
		return batches(func(b []alarm.Alarm) error {
			seen := make(map[string]bool)
			var macs []string
			for i := range b {
				if !seen[b[i].DeviceMAC] {
					seen[b[i].DeviceMAC] = true
					macs = append(macs, b[i].DeviceMAC)
				}
			}
			calls++
			_, err := history.DeviceHistograms(macs, b[0].Timestamp.Add(-30*24*time.Hour), histBucket)
			return err
		})
	})
	if err != nil {
		return err
	}
	m["core.device_histograms_us_per_batch"] = float64(took.Microseconds()) / float64(calls)

	if err := r.storeCalls(alarms, m); err != nil {
		return err
	}
	return wireCalls(payloads, alarms, m)
}

// storeCalls times the document store directly: batched inserts into a
// memory and a WAL-backed collection, the WAL's sync, checkpoint and
// recovery, and one dashboard aggregation cold and from the snapshot
// cache.
func (r *run) storeCalls(alarms []alarm.Alarm, m map[string]float64) error {
	n := float64(len(alarms))
	insert := func(db *docstore.DB, afterBatch func() error) (time.Duration, uint64, *docstore.Collection, error) {
		col, err := db.CollectionWithShardKey("alarms", "deviceMac")
		if err != nil {
			return 0, 0, nil, err
		}
		if err := col.CreateIndex("deviceMac"); err != nil {
			return 0, 0, nil, err
		}
		docs := make([]docstore.Doc, len(alarms))
		for i := range alarms {
			docs[i] = alarmDocument(&alarms[i])
		}
		var took time.Duration
		var allocs uint64
		for lo := 0; lo < len(docs); lo += maxPerBatch {
			batch := docs[lo:min(lo+maxPerBatch, len(docs))]
			d, a, _ := timeAllocs(func() error { col.InsertMany(batch); return nil })
			took, allocs = took+d, allocs+a
			if err := afterBatch(); err != nil {
				return 0, 0, nil, err
			}
		}
		return took, allocs, col, nil
	}

	took, allocs, col, err := insert(docstore.NewDBWithPartitions(storePartitions), func() error { return nil })
	if err != nil {
		return err
	}
	m["docstore.insert_ns_per_doc.mem"] = float64(took.Nanoseconds()) / n
	m["docstore.insert_allocs_per_doc"] = float64(allocs) / n
	top := []docstore.Stage{
		docstore.Group{By: []string{"deviceMac"}, Accs: map[string]docstore.Accumulator{"n": {Op: "count"}}},
		docstore.SortStage{Field: "-n"}, docstore.Limit{N: 10},
	}
	start := time.Now()
	if _, err := col.Aggregate(nil, top...); err != nil {
		return err
	}
	m["docstore.aggregate_cold_ms"] = ms(time.Since(start))
	var cached []float64
	for i := 0; i < 50; i++ {
		start := time.Now()
		if _, err := col.Aggregate(nil, top...); err != nil {
			return err
		}
		cached = append(cached, float64(time.Since(start).Microseconds()))
	}
	m["docstore.aggregate_cached_us"] = median(cached)

	dir, err := r.e.freshDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := docstore.OpenDB(dir, walOptions)
	if err != nil {
		return err
	}
	var syncs []float64
	took, _, col, err = insert(db, func() error {
		start := time.Now()
		err := db.Sync()
		syncs = append(syncs, ms(time.Since(start)))
		return err
	})
	if err != nil {
		return fmt.Errorf("wal insert: %w", closeAfter(err, db))
	}
	m["docstore.insert_ns_per_doc.wal"] = float64(took.Nanoseconds()) / n
	m["docstore.wal_sync_ms"] = median(syncs)
	var walBytes int64
	err = filepath.WalkDir(dir, func(_ string, entry fs.DirEntry, err error) error {
		if err != nil || entry.IsDir() {
			return err
		}
		info, err := entry.Info()
		walBytes += info.Size()
		return err
	})
	if err != nil {
		return closeAfter(err, db)
	}
	m["docstore.wal_bytes_per_doc"] = float64(walBytes) / n
	start = time.Now()
	if err := db.Checkpoint(); err != nil {
		return closeAfter(err, db)
	}
	m["docstore.checkpoint_ms"] = ms(time.Since(start))
	stored := col.Len()
	if err := db.Close(); err != nil {
		return err
	}
	recovery, got, err := reopen(dir)
	if err != nil {
		return err
	}
	if got != stored {
		r.check("recovery", fmt.Errorf("recovered %d documents, stored %d", got, stored))
	}
	m["docstore.recover_ms"] = ms(recovery)
	return nil
}

func closeAfter(err error, db *docstore.DB) error {
	if cerr := db.Close(); cerr != nil {
		return fmt.Errorf("%w (and closing the store: %v)", err, cerr)
	}
	return err
}

// wireCalls times the wire layer without replication: produce
// round-trips against a standalone node, and the frame codec alone.
func wireCalls(payloads [][]byte, alarms []alarm.Alarm, m map[string]float64) error {
	br := broker.New()
	defer func() { _ = br.Close() }() // in-memory log: nothing to flush
	srv, err := netbroker.NewServer(br, "127.0.0.1:0", netbroker.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	client, err := netbroker.Dial([]string{srv.Addr()}, topicName, netbroker.ClientOptions{})
	if err != nil {
		return err
	}
	defer client.Close()
	if _, err := client.EnsureTopic(partitions); err != nil {
		return err
	}
	prod, err := client.NewProducer()
	if err != nil {
		return err
	}
	defer prod.Close()
	sends := min(len(payloads), 2000)
	send := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if _, _, err := prod.SendAt([]byte(alarms[i].DeviceMAC), payloads[i], alarms[i].Timestamp); err != nil {
				return err
			}
		}
		return nil
	}
	warm := sends / 10 // first sends create partition and producer state on the node
	if err := send(0, warm); err != nil {
		return err
	}
	took, allocs, err := timeAllocs(func() error { return send(warm, sends) })
	if err != nil {
		return err
	}
	m["netbroker.send_us.rf1"] = float64(took.Microseconds()) / float64(sends-warm)
	m["netbroker.send_allocs.rf1"] = float64(allocs) / float64(sends-warm)

	body := make([]byte, 1024)
	for i := range body {
		body[i] = byte(i)
	}
	const frames = 20000
	var frame []byte
	start := time.Now()
	for i := 0; i < frames; i++ {
		if frame, err = netbroker.AppendFrame(frame[:0], body); err != nil {
			return err
		}
		if _, _, err = netbroker.DecodeFrame(frame); err != nil {
			return err
		}
	}
	m["netbroker.frame_ns_per_kb"] = float64(time.Since(start).Nanoseconds()) / frames
	return nil
}
