// Command alarmd runs the live verification service: a producer
// replays synthetic production alarms into the broker at a configured
// rate while a sharded, pipelined consumer service verifies them —
// the shape of the deployment sketched in §4, scaled out along the
// paper's §5.5.2 lesson (partitions × shards are the parallelism
// knobs). The alarm history persists into a hash-partitioned document
// store (-store-partitions): each shard's persist stage writes its own
// batch before committing it. With -data-dir the store is durable:
// every mutation lands in a per-partition write-ahead log
// (group-fsynced every -wal-sync), periodic snapshots truncate the
// logs, and a restart replays the tail — recovering the alarm history
// and operator feedback instead of re-seeding from scratch, and
// numbering the replayed stream after the highest alarm id stored, so
// no id is issued twice. -retention
// prunes history older than the given age at each snapshot.
//
// With -model-dir the daemon boots from the latest version in the
// on-disk model registry (training and registering a v1 when the
// registry is empty), and with -retrain-interval / -retrain-min-feedback
// a background retrainer periodically refits on the recorded history
// plus operator feedback, shadow-evaluates the candidate, registers it
// and hot-swaps it into the running shards — lock-free, with no
// dropped records. -listen exposes the HTTP API (including POST
// /feedback, the operator-verdict intake).
//
// SIGINT/SIGTERM trigger a graceful drain: intake halts, in-flight
// micro-batches finish classify and persist, their offsets are
// committed, and the final statistics print before exit.
//
// The replayed stream is shaped by the scenario load generator
// (internal/loadgen): -scenario picks the arrival process (constant,
// poisson, burst, diurnal, flash) and -skew concentrates traffic on
// Zipf-distributed hot devices, offered open-loop at -rate. Each shard
// runs serve.DefaultConfig: it drains at most 512 records per
// micro-batch, persists them and commits that batch's offsets; its
// stage queues hold two batches each, and an idle drain parks for at
// most 50 ms (an append, or an in-process rebalance, ends it at once),
// so none of these needs a flag.
// Overload control is opt-in: -shed-queue
// bounds the per-shard backlog, shedding the oldest batches (counted,
// committed) past it. Latency histograms for every stage and
// end-to-end run lock-free (internal/metrics) and are served on
// /metrics and /stats. -pprof-listen exposes the net/http/pprof
// profiler on its own address so CPU and allocation profiles can be
// captured from a live run (see PERFORMANCE.md and `make profile`).
//
// Usage:
//
//	alarmd -rate 5000 -scenario flash -duration 10s -partitions 8 -shards 4 \
//	       -shed-queue 8192 -store-partitions 8 \
//	       -model-dir ./models -retrain-interval 5s -retrain-min-feedback 200 -listen :8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // /debug/pprof/ handlers for -pprof-listen
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
	"alarmverify/internal/dataset"
	"alarmverify/internal/docstore"
	"alarmverify/internal/loadgen"
	"alarmverify/internal/metrics"
	"alarmverify/internal/ml"
	"alarmverify/internal/modelreg"
	"alarmverify/internal/netbroker"
	"alarmverify/internal/serve"
)

// options is the validated alarmd configuration.
type options struct {
	rate            int
	scenario        string
	skew            float64
	duration        time.Duration
	partitions      int
	shards          int
	shedQueue       int
	storePartitions int
	dataDir         string
	walSync         time.Duration
	retention       time.Duration
	trainN          int
	modelDir        string
	retrainInterval time.Duration
	retrainMinFB    int
	listen          string
	pprofListen     string
	topDevices      int
	brokerAddr      string
	produce         bool
}

// errFlagParse wraps errors the flag package already reported to the
// FlagSet's output (with usage), so main does not print them twice.
var errFlagParse = errors.New("alarmd: invalid flags")

// parseOptions parses and validates the command line. Errors (rather
// than silent normalization) keep misconfigured deployments loud.
func parseOptions(args []string, output io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("alarmd", flag.ContinueOnError)
	fs.SetOutput(output)
	fs.IntVar(&o.rate, "rate", 5_000, "alarms per second to produce (0 = as fast as possible)")
	fs.StringVar(&o.scenario, "scenario", "constant",
		fmt.Sprintf("arrival process for the replayed stream: %s (ignored when -rate is 0)",
			strings.Join(loadgen.Scenarios(), "|")))
	fs.Float64Var(&o.skew, "skew", 0,
		"per-device Zipf exponent for the replayed stream (> 1 concentrates on hot devices; 0 = source keys)")
	fs.DurationVar(&o.duration, "duration", 10*time.Second, "how long to run")
	fs.IntVar(&o.partitions, "partitions", 8, "broker partitions (the §5.5.2 parallelism knob)")
	fs.IntVar(&o.shards, "shards", 2, "consumer shards joining the verification group")
	fs.IntVar(&o.shedQueue, "shed-queue", 0,
		"per-shard backlog bound in records beyond which drained batches are load-shed (0 = never shed)")
	fs.IntVar(&o.storePartitions, "store-partitions", 0,
		"document-store partitions per collection (0 = one per CPU, minimum 2)")
	fs.StringVar(&o.dataDir, "data-dir", "",
		"durable store directory: per-partition WALs + snapshots, crash recovery on boot (empty = memory only)")
	fs.DurationVar(&o.walSync, "wal-sync", docstore.DefaultWALSyncInterval,
		"WAL group-fsync interval; 0 makes each write wait for an fsync covering it (strict, slow); requires -data-dir")
	fs.DurationVar(&o.retention, "retention", 0,
		"prune alarm history older than this at each snapshot (0 = keep everything); requires -data-dir")
	fs.IntVar(&o.trainN, "train", 30_000, "alarms for offline training")
	fs.StringVar(&o.modelDir, "model-dir", "",
		"versioned model registry directory: boot from the latest saved model and register retrained ones (empty = in-memory models only)")
	fs.DurationVar(&o.retrainInterval, "retrain-interval", 0,
		"background retrain cadence (0 = no timer-triggered retraining)")
	fs.IntVar(&o.retrainMinFB, "retrain-min-feedback", 0,
		"operator verdicts that trigger a retrain (0 = no feedback-triggered retraining)")
	fs.StringVar(&o.listen, "listen", "",
		"HTTP listen address for /verify, /feedback, /stats, /history (empty = no HTTP API)")
	fs.StringVar(&o.pprofListen, "pprof-listen", "",
		"HTTP listen address for net/http/pprof profiling endpoints under /debug/pprof/ (empty = no profiler)")
	fs.IntVar(&o.topDevices, "top-devices", 5,
		"noisiest devices ranked in /stats and the final report via pushdown store aggregation (0 = disabled)")
	fs.StringVar(&o.brokerAddr, "broker-addr", "",
		"comma-separated brokerd replica addresses: produce into and join shards over the wire instead of an in-process broker (empty = in-process)")
	fs.BoolVar(&o.produce, "produce", true,
		"replay generated load into the broker; disable for shard-only processes consuming a stream another process produces (requires -broker-addr)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return options{}, err
		}
		return options{}, fmt.Errorf("%w: %v", errFlagParse, err)
	}
	if _, err := loadgen.Preset(o.scenario, 1, time.Second); err != nil {
		return options{}, fmt.Errorf("alarmd: -scenario: %v", err)
	}
	// -wal-sync and -retention modify the durable store; explicitly
	// setting either without a -data-dir is a misconfiguration, not a
	// silent no-op.
	if o.dataDir == "" {
		var durFlag string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "wal-sync" || f.Name == "retention" {
				durFlag = f.Name
			}
		})
		if durFlag != "" {
			return options{}, fmt.Errorf("alarmd: -%s requires -data-dir", durFlag)
		}
	}
	switch {
	case o.rate < 0:
		return options{}, fmt.Errorf("alarmd: -rate must be >= 0, got %d", o.rate)
	case o.skew != 0 && o.skew <= 1:
		return options{}, fmt.Errorf("alarmd: -skew must be > 1 (or 0 for uniform), got %g", o.skew)
	case o.shedQueue < 0:
		return options{}, fmt.Errorf("alarmd: -shed-queue must be >= 0, got %d", o.shedQueue)
	case o.duration <= 0:
		return options{}, fmt.Errorf("alarmd: -duration must be positive, got %s", o.duration)
	case o.partitions < 1:
		return options{}, fmt.Errorf("alarmd: -partitions must be >= 1, got %d", o.partitions)
	case o.shards < 1:
		return options{}, fmt.Errorf("alarmd: -shards must be >= 1, got %d", o.shards)
	case o.storePartitions < 0:
		return options{}, fmt.Errorf("alarmd: -store-partitions must be >= 0, got %d", o.storePartitions)
	case o.walSync < 0:
		return options{}, fmt.Errorf("alarmd: -wal-sync must be >= 0, got %s", o.walSync)
	case o.retention < 0:
		return options{}, fmt.Errorf("alarmd: -retention must be >= 0, got %s", o.retention)
	case o.trainN < 1:
		return options{}, fmt.Errorf("alarmd: -train must be >= 1, got %d", o.trainN)
	case o.retrainInterval < 0:
		return options{}, fmt.Errorf("alarmd: -retrain-interval must be >= 0, got %s", o.retrainInterval)
	case o.retrainMinFB < 0:
		return options{}, fmt.Errorf("alarmd: -retrain-min-feedback must be >= 0, got %d", o.retrainMinFB)
	case o.topDevices < 0:
		return options{}, fmt.Errorf("alarmd: -top-devices must be >= 0, got %d", o.topDevices)
	case !o.produce && o.brokerAddr == "":
		return options{}, fmt.Errorf("alarmd: -produce=false requires -broker-addr (a local-only process with no producer would never receive records)")
	}
	return o, nil
}

func main() {
	opts, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		// Flag-package errors were already printed with usage; only
		// the post-parse validation errors still need reporting.
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(o options) error {
	fmt.Printf("generating world and %d training alarms...\n", o.trainN)
	world := dataset.NewWorld(42)
	cfg := dataset.DefaultSitasysConfig()
	cfg.NumAlarms = o.trainN * 3
	alarms := dataset.GenerateSitasys(world, cfg)

	var reg *modelreg.Registry
	if o.modelDir != "" {
		var err error
		reg, err = modelreg.Open(o.modelDir)
		if err != nil {
			return err
		}
	}

	var verifier *core.Verifier
	if reg != nil {
		if latest, ok, err := reg.Latest(); err != nil {
			return err
		} else if ok {
			v, err := core.LoadFromRegistry(reg, 0, nil)
			if err != nil {
				return err
			}
			verifier = v
			fmt.Printf("loaded model v%04d (%s) from %s: %d train records, %d features\n",
				latest.Version, latest.Algorithm, o.modelDir, latest.TrainRecords, latest.Features)
		}
	}
	if verifier == nil {
		fmt.Println("training verifier (random forest, Table 3 parameters)...")
		vcfg := core.DefaultVerifierConfig()
		vcfg.Classifier = ml.NewRandomForest(ml.DefaultRandomForestConfig())
		v, err := core.Train(alarms[:o.trainN], vcfg)
		if err != nil {
			return err
		}
		verifier = v
		st := verifier.Stats()
		fmt.Printf("trained on %d alarms, %d features, in %s\n",
			st.TrainRecords, st.Features, st.TrainTime.Round(time.Millisecond))
		if reg != nil {
			// Register the boot model as v1 so retrained versions have a
			// lineage, scoring it on a slice of the replay stream.
			holdout := alarms[o.trainN:min(len(alarms), o.trainN+5_000)]
			cm, err := verifier.EvaluateHoldout(holdout)
			if err != nil {
				return err
			}
			m, err := core.SaveToRegistry(reg, verifier, modelreg.HoldoutMetrics{
				Records:   cm.Total(),
				Accuracy:  cm.Accuracy(),
				Precision: cm.Precision(),
				Recall:    cm.Recall(),
				F1:        cm.F1(),
			}, 0)
			if err != nil {
				return err
			}
			fmt.Printf("registered boot model as v%04d (holdout accuracy %.4f)\n",
				m.Version, cm.Accuracy())
		}
	}

	// Broker surface: in-process by default; with -broker-addr the
	// same pipeline produces into and joins a brokerd replica set over
	// the wire (sender and cluster are the two seams; everything
	// downstream is deployment-agnostic).
	var (
		sender       broker.RecordSender
		cluster      serve.Cluster
		memberPrefix string
		client       *netbroker.Client
	)
	if o.brokerAddr != "" {
		addrs := strings.Split(o.brokerAddr, ",")
		var err error
		client, err = netbroker.Dial(addrs, "alarms", netbroker.ClientOptions{})
		if err != nil {
			return err
		}
		defer client.Close()
		parts, err := client.EnsureTopic(o.partitions)
		if err != nil {
			return err
		}
		prod, err := client.NewProducer()
		if err != nil {
			return err
		}
		defer prod.Close()
		sender = prod
		cluster = client
		// Shard member ids must be unique per group across every
		// joining process.
		host, _ := os.Hostname()
		memberPrefix = fmt.Sprintf("%s-%d", host, os.Getpid())
		fmt.Printf("remote broker %s: topic \"alarms\" with %d partitions, member prefix %s\n",
			o.brokerAddr, parts, memberPrefix)
	} else {
		b := broker.New()
		defer b.Close()
		topic, err := b.CreateTopic("alarms", o.partitions)
		if err != nil {
			return err
		}
		sender = broker.NewProducer(topic)
		cluster = serve.LocalCluster{Broker: b, Topic: "alarms"}
	}
	var db *docstore.DB
	if o.dataDir != "" {
		// User-set -wal-sync 0 means strict per-append fsync, which the
		// store spells SyncInterval < 0 (its own 0 = "use the default").
		syncInterval := o.walSync
		if syncInterval == 0 {
			syncInterval = -1
		}
		var err error
		db, err = docstore.OpenDB(o.dataDir, docstore.DurableOptions{
			Partitions:   o.storePartitions,
			SyncInterval: syncInterval,
		})
		if err != nil {
			return err
		}
		fmt.Printf("durable store at %s (wal-sync %s)\n", o.dataDir, o.walSync)
	} else {
		db = docstore.NewDBWithPartitions(o.storePartitions)
	}
	defer func() {
		if err := db.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "alarmd: store close: %v\n", err)
		}
	}()
	history, err := core.NewHistory(db)
	if err != nil {
		return err
	}
	recovered := history.Len()
	if o.retention > 0 {
		history.SetRetention(o.retention)
		fmt.Printf("history retention: pruning alarms older than %s at each snapshot\n", o.retention)
	}
	if recovered > 0 {
		// A durable restart already holds a corpus; re-seeding the boot
		// train set would duplicate it in every retrain thereafter, and
		// replaying the earlier run's ids would store each alarm twice.
		fmt.Printf("recovered %d alarms from %s\n", recovered, o.dataDir)
		if err := numberAfterStored(history, alarms[o.trainN:]); err != nil {
			return err
		}
	} else {
		// Seed the history with the boot train set: an early retrain
		// (feedback arriving in the first seconds) then competes on at
		// least the corpus the boot model was fitted on, instead of
		// replacing a 30k-alarm model with a candidate fitted — and
		// shadow-evaluated — on a thin replay prefix.
		history.RecordBatch(alarms[:o.trainN])
	}
	pipeMetrics := metrics.NewPipeline()
	svc, err := serve.NewWith(cluster, "alarmd", verifier, history, o.config(pipeMetrics, memberPrefix))
	if err != nil {
		return err
	}
	defer svc.Close()
	svc.Start()
	fmt.Printf("serving with %d shard(s), %d broker partitions, %d store partitions\n",
		o.shards, o.partitions, db.Partitions())
	if o.shedQueue > 0 {
		fmt.Printf("overload control: shed-queue=%d\n", o.shedQueue)
	}

	var retrainer *core.Retrainer
	if o.retrainInterval > 0 || o.retrainMinFB > 0 {
		retrainer = core.NewRetrainer(verifier, history, reg, core.RetrainerConfig{
			Interval:    o.retrainInterval,
			MinFeedback: o.retrainMinFB,
			Verifier:    core.DefaultVerifierConfig(),
		})
		retrainer.Start()
		defer retrainer.Stop()
		fmt.Printf("retrainer on: interval=%s min-feedback=%d registry=%q\n",
			o.retrainInterval, o.retrainMinFB, o.modelDir)
	}

	if o.listen != "" {
		api := core.NewHTTPService(verifier, history, core.DefaultCustomerPolicy())
		api.AttachPipeline(pipeMetrics)
		api.SetTopDevices(o.topDevices)
		httpSrv := &http.Server{Addr: o.listen, Handler: api.Handler()}
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "alarmd: http: %v\n", err)
			}
		}()
		// Graceful, like the rest of the drain: let in-flight requests
		// (an operator's /feedback verdict, say) complete instead of
		// severing their connections.
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			if err := httpSrv.Shutdown(ctx); err != nil {
				httpSrv.Close()
			}
		}()
		fmt.Printf("http api on %s (/verify /feedback /stats /metrics /history/{mac} /healthz)\n", o.listen)
	}

	if o.pprofListen != "" {
		// The blank net/http/pprof import registers its handlers on the
		// DefaultServeMux; serving nil exposes them. A dedicated
		// listener keeps profiling off the public API address.
		pprofSrv := &http.Server{Addr: o.pprofListen, Handler: nil}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "alarmd: pprof: %v\n", err)
			}
		}()
		defer pprofSrv.Close()
		fmt.Printf("pprof on %s (/debug/pprof/profile /debug/pprof/heap /debug/pprof/mutex ...)\n", o.pprofListen)
	}

	replay := alarms[o.trainN:]
	done := make(chan loadgen.Stats, 1)
	if !o.produce {
		fmt.Println("producer off (-produce=false): consuming the remote stream only")
	} else if o.rate == 0 {
		// As-fast-as-possible replay: no arrival process to shape.
		// Enqueue-time stamping keeps the e2e (enqueue→commit)
		// histogram measuring real queueing delay — the alarms'
		// synthetic event times would read as decade-scale latencies.
		producer := core.NewProducerAppFor(sender, codec.FastCodec{})
		producer.Threads = 4
		producer.EnqueueTimestamps = true
		fmt.Printf("replaying up to %d alarms as fast as possible for %s...\n", len(replay), o.duration)
		go func() {
			stats, err := producer.Replay(replay, 0)
			st := loadgen.Stats{Scheduled: len(replay), Sent: stats.Sent,
				Elapsed: stats.Elapsed, PerSec: stats.PerSecond}
			if err != nil {
				st.Errors = len(replay) - stats.Sent
				fmt.Fprintf(os.Stderr, "alarmd: replay: %v\n", err)
			}
			done <- st
		}()
	} else {
		lcfg, err := loadgen.Preset(o.scenario, float64(o.rate), o.duration)
		if err != nil {
			return err
		}
		lcfg.Seed = 42
		lcfg.ZipfS = o.skew
		// A lazy Stream, not a materialized schedule: memory stays
		// constant at any -rate × -duration.
		lstream, err := loadgen.NewStream(lcfg, replay)
		if err != nil {
			return err
		}
		fmt.Printf("generating %q load at base %d/s for %s (skew %g)...\n",
			o.scenario, o.rate, o.duration, o.skew)
		driver := &loadgen.Driver{Sink: loadgen.NewSenderSink(sender, codec.FastCodec{}), Workers: 4}
		go func() { done <- driver.RunStream(lstream) }()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	deadline := time.After(o.duration)
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
loop:
	for {
		select {
		case <-deadline:
			break loop
		case s := <-sig:
			fmt.Printf("\n%s: draining in-flight batches...\n", s)
			break loop
		case stats := <-done:
			fmt.Printf("producer finished early: %d alarms in %s; draining backlog...\n",
				stats.Sent, stats.Elapsed.Round(time.Millisecond))
			for {
				lag, err := svc.Lag()
				if err != nil || lag == 0 {
					break loop
				}
				select {
				case <-deadline:
					break loop
				case s := <-sig:
					fmt.Printf("\n%s: draining in-flight batches...\n", s)
					break loop
				case <-time.After(50 * time.Millisecond):
				}
			}
		case <-ticker.C:
			stats := svc.Stats()
			lag, _ := svc.Lag()
			fmt.Printf("  verified=%d  batches=%d  lag=%d  throughput=%.0f alarms/s\n",
				stats.Records, stats.Batches, lag, stats.PerSec)
		}
	}
	// Graceful drain: every drained batch is classified, persisted and
	// committed before Stop returns.
	svc.Stop()

	stats := svc.Stats()
	fmt.Printf("\nfinal: %d alarms verified in %s, throughput %.0f alarms/s\n",
		stats.Records, stats.Elapsed.Round(time.Millisecond), stats.PerSec)
	snap := pipeMetrics.Snapshot()
	fmt.Print("stage latency p50/p99 (ms):")
	for _, st := range []metrics.Stage{metrics.StageDecode, metrics.StageClassify, metrics.StagePersist, metrics.StageCommit} {
		s := snap.Stages[st].Summary()
		fmt.Printf(" %s=%.2f/%.2f", st, s.P50MS, s.P99MS)
	}
	fmt.Println()
	if e2e := snap.Stages[metrics.StageE2E]; e2e.N > 0 {
		s := e2e.Summary()
		fmt.Printf("e2e latency (enqueue→commit, %d records): p50=%.1fms p95=%.1fms p99=%.1fms max≈%.0fms\n",
			s.Count, s.P50MS, s.P95MS, s.P99MS, s.MaxMS)
	}
	if stats.ShedRecords > 0 {
		fmt.Printf("load shedding: %d records dropped (backlog bound %d)\n",
			stats.ShedRecords, o.shedQueue)
	}
	for _, sh := range stats.Shards {
		fmt.Printf("  %s: partitions=%v batches=%d records=%d shed=%d inflight-peak=%d rebalances=%d\n",
			sh.ID, sh.Partitions, sh.Batches, sh.Records, sh.ShedRecords, sh.InFlightPeak, sh.Rebalances)
		if sh.Err != nil {
			fmt.Printf("  %s: HALTED: %v\n", sh.ID, sh.Err)
		}
	}
	if retrainer != nil {
		rs := retrainer.Stats()
		fmt.Printf("retrainer: %d attempts, %d swaps, %d rejected; serving model v%04d (%d feedback verdicts)\n",
			rs.Attempts, rs.Swaps, rs.Rejected, verifier.ModelVersion(), history.FeedbackCount())
		if rs.LastErr != "" {
			fmt.Printf("retrainer: last error: %s\n", rs.LastErr)
		}
	}
	if committed, err := svc.Committed(); err == nil {
		var sum int64
		for _, off := range committed {
			sum += off
		}
		fmt.Printf("committed offsets: %d records durable across %d partitions\n",
			sum, len(committed))
	}
	if client != nil {
		ws := client.WireStats()
		fmt.Printf("wire: %d retries, %d reconnects, %d fetches (%d empty)\n",
			ws.Retries, ws.Reconnects, ws.Fetches, ws.EmptyFetches)
	}
	if o.topDevices > 0 {
		if top, err := history.TopDevices(o.topDevices); err == nil && len(top) > 0 {
			fmt.Printf("noisiest devices (pushdown group-count over %d stored alarms):\n", history.Len())
			for i, dc := range top {
				fmt.Printf("  %d. %s: %d alarms\n", i+1, dc.Mac, dc.Count)
			}
		}
	}

	// Operator view: top 3 most urgent verified alarms.
	q := operatorQueue(history)
	fmt.Printf("\noperator queue: %d likely-true alarms; most urgent:\n", q.Len())
	for i := 0; i < 3; i++ {
		item, ok := q.Pop()
		if !ok {
			break
		}
		fmt.Printf("  alarm %d: %s at %s (P=%.2f)\n", item.Alarm.ID,
			item.Alarm.Type, item.Alarm.ZIP, item.Verification.Probability)
	}
	// A halted shard left records unverified: fail loudly.
	return svc.Err()
}

// config is the sharded service alarmd runs for o: serve.DefaultConfig
// with the shard count, shed bound, member prefix and metrics set.
func (o options) config(m *metrics.Pipeline, memberPrefix string) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Shards = o.shards
	cfg.ShedQueue = o.shedQueue
	cfg.MemberPrefix = memberPrefix
	cfg.Consumer.Metrics = m
	return cfg
}

// numberAfterStored renumbers alarms in order from one past the highest
// alarm id h holds, so a replay re-issues none of the stored ids.
func numberAfterStored(h *core.History, alarms []alarm.Alarm) error {
	stored, err := h.RecentAlarms(0)
	if err != nil {
		return err
	}
	var last int64
	for i := range stored {
		last = max(last, stored[i].ID)
	}
	for i := range alarms {
		alarms[i].ID = last + 1 + int64(i)
	}
	return nil
}

// operatorQueue queues every stored alarm predicted true, as stored.
func operatorQueue(h *core.History) *core.OperatorQueue {
	q := core.NewOperatorQueue()
	alarms, verdicts := h.Verdicts()
	for i := range verdicts {
		if verdicts[i].Predicted == alarm.True {
			q.Push(alarms[i], verdicts[i])
		}
	}
	return q
}
