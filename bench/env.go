package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
	"alarmverify/internal/dataset"
	"alarmverify/internal/docstore"
	"alarmverify/internal/metrics"
	"alarmverify/internal/ml"
	"alarmverify/internal/netbroker"
	"alarmverify/internal/serve"
)

// The serving configuration is the one BenchmarkDurableThroughput
// already uses, so the harness measures the deployment the repository's
// own numbers describe.
const (
	topicName       = "alarms"
	groupName       = "bench"
	partitions      = 8
	shards          = 2
	storePartitions = 4
	writeBehind     = 4096
	maxPerBatch     = 512
)

// walOptions opens a WAL-backed store at the store's defaults: group
// fsync every 5 ms.
var walOptions = docstore.DurableOptions{Partitions: storePartitions}

// scale sizes everything a run does. The full scale is the benchmark;
// the smoke scale runs the same code on a few thousand alarms so a test
// can check every cell in seconds.
type scale struct {
	alarms, devices int // synthetic dataset
	train, holdout  int // first alarms train the forest, the next test it; the rest is replayed
	trees, depth    int
	minAccuracy     float64
	roundAlarms     int     // alarms preloaded per closed-loop drain round
	serialAlarms    int     // alarms of the serial stage pass
	layerAlarms     int     // alarms per direct layer call
	pacedRate       float64 // open-loop Poisson rate, in-process broker
	wireRate        float64 // open-loop Poisson rate over the replica set
}

var (
	fullScale = scale{
		alarms: 48000, devices: 1200, train: 12000, holdout: 6000,
		trees: 50, depth: 30, minAccuracy: 0.80,
		roundAlarms: 40000, serialAlarms: 60000, layerAlarms: 20000,
		pacedRate: 2000, wireRate: 64,
	}
	smokeScale = scale{
		alarms: 6000, devices: 300, train: 3000, holdout: 1000,
		trees: 10, depth: 12, minAccuracy: 0.60,
		roundAlarms: 1000, serialAlarms: 2000, layerAlarms: 1000,
		pacedRate: 2000, wireRate: 64,
	}
)

// env is what every workload starts from: the dataset split three ways
// and the trained verifier.
type env struct {
	sc       scale
	seed     int64
	train    []alarm.Alarm
	holdout  []alarm.Alarm
	replay   []alarm.Alarm
	verifier *core.Verifier
	trainS   float64
	accuracy float64
	runDir   string // scratch for this run's WAL directories
	nextDir  int
	nextID   int64 // next alarm id handed to a produced record
}

// newEnv generates the dataset from the seed, trains the forest and
// scores it on the hold-out.
func newEnv(sc scale, seed int64, outDir, tag string) (*env, error) {
	cfg := dataset.DefaultSitasysConfig()
	cfg.NumAlarms, cfg.NumDevices, cfg.Seed = sc.alarms, sc.devices, seed
	alarms := dataset.GenerateSitasys(dataset.NewWorld(seed), cfg)
	e := &env{
		sc: sc, seed: seed,
		train:   alarms[:sc.train],
		holdout: alarms[sc.train : sc.train+sc.holdout],
		replay:  alarms[sc.train+sc.holdout:],
		runDir:  filepath.Join(outDir, fmt.Sprintf("%s-seed%d-pid%d", tag, seed, os.Getpid())),
		nextID:  int64(10 * sc.alarms),
	}
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}
	rf := ml.DefaultRandomForestConfig()
	rf.NumTrees, rf.MaxDepth, rf.Seed = sc.trees, sc.depth, seed
	vcfg := core.DefaultVerifierConfig()
	vcfg.Classifier = ml.NewRandomForest(rf)
	start := time.Now()
	v, err := core.Train(e.train, vcfg)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	e.trainS = time.Since(start).Seconds()
	cm, err := v.EvaluateHoldout(e.holdout)
	if err != nil {
		return nil, fmt.Errorf("hold-out: %w", err)
	}
	e.verifier, e.accuracy = v, cm.Accuracy()
	return e, nil
}

// take returns the next n replay alarms (cycling) under fresh ids, so
// every record a run produces is distinguishable from every other.
func (e *env) take(n int) []alarm.Alarm {
	out := make([]alarm.Alarm, n)
	for i := range out {
		out[i] = e.replay[int(e.nextID+int64(i))%len(e.replay)]
		out[i].ID = e.nextID + int64(i)
	}
	e.nextID += int64(n)
	return out
}

// freshDir returns a new empty directory under the run's scratch.
func (e *env) freshDir() (string, error) {
	e.nextDir++
	dir := filepath.Join(e.runDir, fmt.Sprintf("wal%03d", e.nextDir))
	return dir, os.MkdirAll(dir, 0o755)
}

// deployment is one running copy of the system under test: a broker (in
// process, or three replica nodes on loopback), a store, the sharded
// service, and the probe on the seams between them.
type deployment struct {
	e         *env
	p         *probe
	senders   []broker.RecordSender // one per load goroutine, wrapped by the probe
	db        *docstore.DB
	dir       string // WAL directory, "" for a memory store
	history   *core.History
	svc       *serve.Service
	pipe      *metrics.Pipeline // stage histograms; attached on traced passes only
	nodes     []*broker.Broker  // the replica set's logs, leader first; nil in process
	seeded    int               // alarms the store held before any were produced
	sent      []alarm.Alarm     // every alarm produced into this deployment
	queryErrs []error           // operator queries that returned an error
	closers   []func()
	closeErr  error
}

func (d *deployment) onClose(f func()) { d.closers = append(d.closers, f) }

// stop tears the deployment down in reverse order of construction but
// leaves a WAL directory in place, for the recovery check to reopen. It
// returns the store's close error — a write that did not reach the log —
// once; stopping again is a no-op.
func (d *deployment) stop() error {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	err := d.closeErr
	d.closers, d.closeErr = nil, nil
	return err
}

// close stops the deployment and removes what it wrote.
func (d *deployment) close() error {
	err := d.stop()
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
	return err
}

func serveConfig(pipe *metrics.Pipeline) serve.Config {
	cfg := serve.Config{Shards: shards, PipelineDepth: 2, Consumer: core.DefaultConsumerConfig()}
	cfg.Consumer.Workers = 1
	cfg.Consumer.ClassifyWorkers = 1
	cfg.Consumer.MaxPerBatch = maxPerBatch
	cfg.Consumer.PollTimeout = time.Millisecond
	cfg.Consumer.Metrics = pipe
	return cfg
}

// openStore opens the deployment's store — a WAL-backed one in a fresh
// directory, or a memory one — and seeds it with the given share of the
// training alarms.
func (d *deployment) openStore(wal bool, seedShare float64) error {
	var err error
	if wal {
		if d.dir, err = d.e.freshDir(); err != nil {
			return err
		}
		d.db, err = docstore.OpenDB(d.dir, walOptions)
		if err != nil {
			return err
		}
	} else {
		d.db = docstore.NewDBWithPartitions(storePartitions)
	}
	d.onClose(func() {
		if err := d.db.Close(); err != nil {
			d.closeErr = fmt.Errorf("store close: %w", err)
		}
	})
	if d.history, err = core.NewHistory(d.db); err != nil {
		return err
	}
	d.history.EnableWriteBehind(writeBehind)
	d.onClose(d.history.Close)
	d.seeded = int(seedShare * float64(len(d.e.train)))
	d.history.RecordBatch(d.e.train[:d.seeded])
	d.history.Flush()
	return nil
}

// deployLocal builds the single-process deployment: in-process broker,
// one producer, two shards.
func (e *env) deployLocal(wal bool, seedShare float64, tr *tracer) (*deployment, error) {
	d := &deployment{e: e, p: newProbe(partitions, false, tr)}
	if tr != nil {
		d.pipe = metrics.NewPipeline()
	}
	br := broker.New()
	d.onClose(func() { _ = br.Close() }) // in-memory log: nothing to flush
	topic, err := br.CreateTopic(topicName, partitions)
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	d.senders = []broker.RecordSender{probeSender{broker.NewProducer(topic), d.p}}
	if err := d.openStore(wal, seedShare); err != nil {
		return nil, errors.Join(err, d.close())
	}
	cluster := probeCluster{serve.LocalCluster{Broker: br, Topic: topicName}, d.p}
	d.svc, err = serve.NewWith(cluster, groupName, e.verifier, d.history, serveConfig(d.pipe))
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	d.onClose(d.svc.Close)
	return d, nil
}

// followerStagger is how long after the first follower the second one
// starts. A quorum ack waits for the next follower pull plus one more
// pull interval, so ack latency depends on the phase between the two
// followers' 5 ms pull tickers, which is fixed when the nodes start.
// Half an interval apart is the same phase on every run (README, noise
// finding 2).
const followerStagger = 2500 * time.Microsecond

// deployWire builds the distributed deployment: three replica nodes on
// loopback inside this process, two wire producers, and two shards that
// consume over the wire. The store is a memory one.
func (e *env) deployWire(seedShare float64, tr *tracer) (*deployment, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := e.tryDeployWire(seedShare, tr)
		if err == nil {
			return d, nil
		}
		lastErr = err // most likely a reserved port was taken in between
	}
	return nil, lastErr
}

func (e *env) tryDeployWire(seedShare float64, tr *tracer) (*deployment, error) {
	d := &deployment{e: e, p: newProbe(partitions, true, tr)}
	if tr != nil {
		d.pipe = metrics.NewPipeline()
	}
	fail := func(err error) (*deployment, error) {
		return nil, errors.Join(err, d.close())
	}
	addrs, err := freeAddrs(3)
	if err != nil {
		return fail(err)
	}
	var firstFollower time.Time
	for i := range addrs {
		if i == 2 {
			for time.Since(firstFollower) < followerStagger {
				// busy-wait: a sleep would overshoot by a scheduler quantum
			}
		}
		b := broker.New()
		d.onClose(func() { _ = b.Close() }) // in-memory log: nothing to flush
		d.nodes = append(d.nodes, b)
		if i == 1 {
			firstFollower = time.Now()
		}
		srv, err := netbroker.NewServer(b, addrs[i], netbroker.Options{NodeID: i, Peers: addrs})
		if err != nil {
			return fail(err)
		}
		d.onClose(srv.Close)
	}
	client, err := netbroker.Dial(addrs, topicName, netbroker.ClientOptions{})
	if err != nil {
		return fail(err)
	}
	d.onClose(client.Close)
	if _, err := client.EnsureTopic(partitions); err != nil {
		return fail(err)
	}
	for i := 0; i < 2; i++ {
		prod, err := client.NewProducer()
		if err != nil {
			return fail(err)
		}
		d.onClose(prod.Close)
		d.senders = append(d.senders, probeSender{prod, d.p})
	}
	if err := d.openStore(false, seedShare); err != nil {
		return fail(err)
	}
	d.svc, err = serve.NewWith(probeCluster{client, d.p}, groupName, e.verifier, d.history, serveConfig(d.pipe))
	if err != nil {
		return fail(err)
	}
	d.onClose(d.svc.Close)
	return d, nil
}

// freeAddrs reserves n loopback addresses by listening on them briefly.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// preload produces alarms through core.ProducerApp, the program's own
// replay path, as fast as two sender threads go.
func (d *deployment) preload(alarms []alarm.Alarm) error {
	app := core.NewProducerAppFor(d.senders[0], codec.FastCodec{})
	app.Threads = 2
	if _, err := app.Replay(alarms, 0); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	d.sent = append(d.sent, alarms...)
	return nil
}
