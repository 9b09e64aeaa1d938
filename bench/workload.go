package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/core"
	"alarmverify/internal/docstore"
	"alarmverify/internal/loadgen"
	"alarmverify/internal/metrics"
)

// workload is one row of the benchmark: which deployment a run builds
// and how it splits its seconds. Every run has an open-loop phase —
// Poisson arrivals alone, for the latency cells, then the same arrivals
// beside an operator's queries — and a closed-loop phase at saturation.
// Every workload reports every cell, measured the same way; the split
// puts most of the run where the workload's own layers do the work.
type workload struct {
	name, why string
	wire      bool // three replica nodes on loopback instead of the in-process broker
	// wal drains the closed-loop rounds into a WAL-backed store instead
	// of a memory one. The open loop runs on a memory store on every
	// workload: an append to the log waits for the host's disk, whose
	// latency moved fivefold from one minute to the next where this was
	// built, and took the latency cells with it (README, noise finding 7).
	wal bool
	// seedShare is the share of the training alarms the store holds
	// before the run produces any: the history the operator's scans read.
	seedShare float64
	// pacedShare is the part of the run spent in the open-loop phase, and
	// queryShare the part of that phase the operator is at work.
	pacedShare, queryShare float64
	// allocsPaced takes allocs_per_alarm from the open-loop phase, where
	// producer and queries allocate beside the pipeline; otherwise it
	// comes from the closed-loop phase.
	allocsPaced bool
}

var workloads = []workload{
	{name: "drain_mem", pacedShare: 0.5, queryShare: 0.3,
		why: "in-process broker, memory store: decode, classify and persist do all the work, WAL and wire none"},
	{name: "drain_wal", wal: true, pacedShare: 0.5, queryShare: 0.3,
		why: "drain_mem with the closed loop draining into a WAL-backed store (5 ms group fsync): the durability tax"},
	{name: "ops_mix", seedShare: 1, pacedShare: 0.55, queryShare: 0.6, allocsPaced: true,
		why: "operator queries beside paced ingest on a store seeded with the training alarms: reads beside writes"},
	{name: "wire_rf3", wire: true, seedShare: 0.25, pacedShare: 0.75, queryShare: 0.2,
		why: "three replica nodes on loopback, shards consume over the wire: quorum ack, fetch and framing do the work"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	queryEvery   = 100 * time.Millisecond // the operator's pace
	lateAfter    = 100 * time.Millisecond // an arrival sent later than this is counted as late
	commitWithin = 5 * time.Second        // records uncommitted this long after a phase count as failed
	warmUp       = time.Second            // paced traffic discarded before the open-loop phase
	histBucket   = 24 * time.Hour
)

// histSince is the start of the operator's per-device histogram window:
// the first day of the synthetic collection period.
var histSince = time.Date(2015, 10, 1, 0, 0, 0, 0, time.UTC)

// The operator's queries, in slot order: three dashboard panels, then a
// per-device histogram. core.query_p50_ms is over the dashboard panels.
var queryKinds = []string{"top_devices", "recent", "by_location", "device_histogram"}

// run is one execution of one workload.
type run struct {
	w       workload
	e       *env
	started time.Time // process start, for setup_s
	seconds float64

	attempted, failed int64
	problems          []string // correctness checks that did not hold
	heapPeak          uint64
}

func (r *run) check(what string, err error) {
	if err != nil {
		r.problems = append(r.problems, what+": "+err.Error())
	}
}

func (r *run) memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapInuse > r.heapPeak {
		r.heapPeak = m.HeapInuse
	}
	return m
}

// pacedStats is what one open-loop phase observed.
type pacedStats struct {
	e2eMS   []float64   // sorted; due instant → covering CommitOffsets returned
	windows [][]float64 // the same samples in latencyWindows equal slices of the phase, by due instant, each sorted
	drift   float64     // p50 of the last third ÷ p50 of the first third, by due instant
	sendMS  []float64   // sorted; SendAt call → return
	queryMS map[string][]float64
	lateMS  []float64 // sorted; how far behind its schedule the generator sent
	late    int64
	alarms  int64 // committed
	mallocs uint64
	lagMax  int64   // most records a follower was behind the leader (wire)
	catchUp float64 // ms until every replica log had the leader's size (wire)
	seam    seamCounts
}

// seamCounts is what crossed the consumer seam during a phase.
type seamCounts struct {
	polls, emptyPolls, polled, commits int64
	pollTime, fullPollTime, commitTime time.Duration
}

func (p *probe) seam() seamCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	return seamCounts{p.polls, p.emptyPolls, p.polled, p.commits, p.pollTime, p.fullPollTime, p.commitTime}
}

func (a seamCounts) minus(b seamCounts) seamCounts {
	return seamCounts{a.polls - b.polls, a.emptyPolls - b.emptyPolls, a.polled - b.polled, a.commits - b.commits,
		a.pollTime - b.pollTime, a.fullPollTime - b.fullPollTime, a.commitTime - b.commitTime}
}

// closedStats is what the closed-loop phase observed.
type closedStats struct {
	perSec  []float64 // one per measured round (in process) or one window (wire)
	alarms  int64
	mallocs uint64
	elapsed time.Duration // measured time only, set-up between rounds excluded
	busy    map[metrics.Stage]time.Duration
	batches int
	cpu     time.Duration
}

// passResult is one pass over the workload, traced or not.
type passResult struct {
	setupS float64
	alone  pacedStats // open loop, ingest alone
	beside pacedStats // open loop, ingest beside the operator's queries
	closed closedStats
}

// cells reduces a pass to the end-to-end metrics.
func (r *run) cells(p passResult) map[string]float64 {
	allocs := float64(p.closed.mallocs) / float64(p.closed.alarms)
	if r.w.allocsPaced {
		allocs = float64(p.alone.mallocs+p.beside.mallocs) / float64(p.alone.alarms+p.beside.alarms)
	}
	return map[string]float64{
		"setup_s":          p.setupS,
		"allocs_per_alarm": allocs,
		"e2e_p50_ms":       p.alone.windowed(0.50),
		"e2e_p90_ms":       p.alone.windowed(0.90),
	}
}

// latencyWindows is how many equal slices of an open-loop phase the
// latency cells are taken over. The host stalls the whole process for
// milliseconds at a time, in bursts that last seconds: in a busy minute
// a tenth of a phase's records carried a stall and the phase's p90 read
// 5 to 10 ms where the pipeline's is 2.4. The host only ever adds
// latency, so each percentile is taken per slice and the best slice is
// reported: a change to the program moves every slice, a burst moves
// the ones it hits. (When the host is busy for a whole phase, the best
// slice is slow too — 20 to 70 % where the whole phase was 50 to 170 % —
// and nothing inside one run can tell that from the program.)
const latencyWindows = 8

// perWindow returns each non-empty slice's q-quantile, in phase order.
func (p pacedStats) perWindow(q float64) []float64 {
	per := make([]float64, 0, len(p.windows))
	for _, w := range p.windows {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	return per
}

// windowed returns the smallest q-quantile among the phase's slices
// (NaN without samples: a missing measurement, not a number).
func (p pacedStats) windowed(q float64) float64 {
	return quantile(sorted(p.perWindow(q)), 0)
}

// dashboardMS returns the call → return times of the three dashboard
// queries; core.query_p50_ms is their median.
func (p pacedStats) dashboardMS() []float64 {
	var out []float64
	for _, kind := range queryKinds[:3] {
		out = append(out, p.queryMS[kind]...)
	}
	return out
}

// pass runs the workload once for the given number of seconds: set-up,
// warm-up, the open-loop phase, then the closed-loop phase.
func (r *run) pass(seconds float64, tr *tracer) (passResult, error) {
	var res passResult
	pacedFor := time.Duration(seconds * r.w.pacedShare * float64(time.Second))
	closedFor := time.Duration(seconds*float64(time.Second)) - pacedFor
	rate := r.e.sc.pacedRate
	if r.w.wire {
		rate = r.e.sc.wireRate
	}

	var d *deployment
	var err error
	if r.w.wire {
		d, err = r.e.deployWire(r.w.seedShare, tr)
	} else {
		d, err = r.e.deployLocal(false, r.w.seedShare, tr)
	}
	if err != nil {
		return res, fmt.Errorf("deploy: %w", err)
	}
	defer func() { r.check("close", d.close()) }()
	d.svc.Start()
	warm := warmUp
	if warm > pacedFor/2 {
		warm = pacedFor / 2 // smoke runs
	}
	if _, err := r.paced(d, rate, warm, r.e.seed+100, false); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	res.setupS = time.Since(r.started).Seconds()

	// Ingest alone first: a scan holds read locks that ingest waits
	// behind, so beside the operator a share of the records equal to the
	// share of time spent scanning carries a scan in its latency, and
	// e2e_p90_ms would read the scans or the pipeline depending on which
	// side of 10 % that share fell on the day (README, noise finding 5).
	// Beside the scans the percentile follows the scan time, which is
	// CPU-bound and does not repeat here; it is a layer metric.
	besideFor := time.Duration(float64(pacedFor) * r.w.queryShare)
	if res.alone, err = r.paced(d, rate, pacedFor-besideFor, r.e.seed+200, false); err != nil {
		return res, fmt.Errorf("open loop: %w", err)
	}
	if res.beside, err = r.paced(d, rate, besideFor, r.e.seed+300, true); err != nil {
		return res, fmt.Errorf("open loop beside queries: %w", err)
	}
	r.verify(d, true)

	if r.w.wire {
		res.closed, err = r.closedWire(d, closedFor)
		if err == nil {
			r.verify(d, false)
		}
		r.check("replica logs", d.awaitReplicas(time.Second))
	}
	r.check("close", d.close()) // before the rounds: frees the store and the service's verdicts
	if !r.w.wire {
		res.closed, err = r.closedRounds(closedFor, tr)
	}
	if err != nil {
		return res, fmt.Errorf("closed loop: %w", err)
	}
	return res, nil
}

// paced drives one open-loop phase: Poisson arrivals at the given rate,
// split over the deployment's senders, while (when asked) one operator
// queries the history every 100 ms. It returns once every record is
// committed or has been given up on.
func (r *run) paced(d *deployment, rate float64, dur time.Duration, seed int64, operator bool) (pacedStats, error) {
	st := pacedStats{queryMS: make(map[string][]float64)}
	src := r.e.take(int(rate*dur.Seconds()*1.5) + 32)
	arrivals, err := loadgen.Schedule(loadgen.Config{
		Shape: loadgen.Constant{PerSec: rate}, Duration: dur, Poisson: true, Seed: seed,
	}, src)
	if err != nil {
		return st, err
	}
	if extra := len(arrivals) - len(src); extra > 0 {
		r.e.nextID += int64(extra) // the stream cycled past src and kept numbering
	}

	d.p.setLatency(true)
	before := d.p.produced()
	seam0 := d.p.seam()
	m0 := r.memStats()
	start := time.Now().Add(2 * time.Millisecond)

	gens := make([]genStats, len(d.senders))
	var wg sync.WaitGroup
	for i := range d.senders {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gens[i] = generate(d.senders[i], start, arrivals, i, len(d.senders))
		}(i)
	}
	stopLag := make(chan struct{})
	var lagDone sync.WaitGroup
	if d.nodes != nil {
		lagDone.Add(1)
		go func() {
			defer lagDone.Done()
			st.lagMax = d.watchLag(stopLag)
		}()
	}
	if operator {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.queryMS = d.operate(start, dur, rand.New(rand.NewSource(seed+1)))
		}()
	}
	wg.Wait()
	close(stopLag)
	lagDone.Wait()

	var sendErr error
	for _, g := range gens {
		st.lateMS = append(st.lateMS, g.lateMS...)
		st.late += g.late
		d.sent = append(d.sent, g.sent...)
		if g.err != nil {
			sendErr = g.err
		}
	}
	sort.Float64s(st.lateMS)
	produced := d.p.produced() - before
	missing, _ := d.p.awaitCommitted(before+produced, commitWithin)
	if d.nodes != nil {
		caught := time.Now()
		r.check("replica logs", d.awaitReplicas(time.Second))
		st.catchUp = ms(time.Since(caught))
	}
	m1 := r.memStats()
	st.seam = d.p.seam().minus(seam0)
	st.alarms = produced - missing
	st.mallocs = m1.Mallocs - m0.Mallocs

	queries := 0
	for _, xs := range st.queryMS {
		queries += len(xs)
	}
	unsent := int64(len(arrivals)) - produced // cut short by a send error
	r.attempted += int64(len(arrivals) + queries)
	r.failed += unsent + missing
	if sendErr != nil {
		return st, fmt.Errorf("send: %w", sendErr)
	}

	d.p.mu.Lock()
	st.e2eMS, st.sendMS = sorted(d.p.e2eMS), sorted(d.p.sendMS)
	st.drift = driftRatio(d.p.e2eMS, d.p.e2eDue)
	st.windows = make([][]float64, latencyWindows)
	origin := int64(start.Sub(d.p.base))
	for i, due := range d.p.e2eDue {
		w := min(int((due-origin)*latencyWindows/int64(dur)), latencyWindows-1)
		st.windows[max(w, 0)] = append(st.windows[max(w, 0)], d.p.e2eMS[i])
	}
	for _, w := range st.windows {
		sort.Float64s(w)
	}
	d.p.mu.Unlock()
	d.p.setLatency(false)
	return st, nil
}

// driftRatio compares the median latency of the records due in the last
// third of a phase with those due in the first third; 1.0 means the
// service was stationary.
func driftRatio(latMS []float64, due []int64) float64 {
	if len(due) < 6 {
		return 1
	}
	lo, hi := due[0], due[0]
	for _, t := range due {
		lo, hi = min(lo, t), max(hi, t)
	}
	third := (hi - lo) / 3
	var first, last []float64
	for i, t := range due {
		switch {
		case t < lo+third:
			first = append(first, latMS[i])
		case t >= hi-third:
			last = append(last, latMS[i])
		}
	}
	return median(last) / median(first)
}

// genStats is what one generator goroutine did.
type genStats struct {
	lateMS []float64
	late   int64
	sent   []alarm.Alarm
	err    error
}

// generate sends every n-th arrival, starting at the i-th, when it is
// due. The schedule does not slow when the system does: a send that
// starts late still carries its due instant as the record's timestamp,
// so the wait a stall imposes on later records is counted in their
// latency. An arrival more than lateAfter late is counted: the host
// stalled the generator, and the run says so.
func generate(sender broker.RecordSender, start time.Time, arrivals []loadgen.Arrival, i, n int) genStats {
	var g genStats
	var buf []byte
	cdc := codec.FastCodec{}
	for ; i < len(arrivals); i += n {
		ar := &arrivals[i]
		due := start.Add(ar.At)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late := time.Since(due)
		if late > lateAfter {
			g.late++
		}
		g.lateMS = append(g.lateMS, ms(late))
		var err error
		if buf, err = cdc.Marshal(buf[:0], &ar.Alarm); err != nil {
			g.err = err
			return g
		}
		val := append([]byte(nil), buf...) // the broker keeps the slice
		if _, _, err := sender.SendAt([]byte(ar.Alarm.DeviceMAC), val, due); err != nil {
			g.err = err
			return g
		}
		g.sent = append(g.sent, ar.Alarm)
	}
	return g
}

// operate is the operator client: one query every queryEvery on a fixed
// schedule, rotating the three dashboard panels with every fourth slot
// a histogram of a seeded-random device. It returns call → return times
// by query kind.
func (d *deployment) operate(start time.Time, dur time.Duration, rng *rand.Rand) map[string][]float64 {
	out := make(map[string][]float64)
	for slot := 0; ; slot++ {
		due := start.Add(time.Duration(slot) * queryEvery)
		if due.Sub(start) >= dur {
			return out
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		kind := queryKinds[slot%len(queryKinds)]
		mac := d.e.replay[rng.Intn(len(d.e.replay))].DeviceMAC
		begin := time.Now()
		var err error
		switch kind {
		case "top_devices":
			_, err = d.history.TopDevices(10)
		case "recent":
			_, err = d.history.RecentAlarms(100)
		case "by_location":
			_, err = d.history.CountByLocation()
		case "device_histogram":
			_, err = d.history.DeviceHistogram(mac, histSince, histBucket)
		}
		end := time.Now()
		d.p.tr.add("core.query."+kind, begin, end)
		if err != nil {
			d.queryErrs = append(d.queryErrs, fmt.Errorf("%s: %w", kind, err))
			continue
		}
		out[kind] = append(out[kind], ms(end.Sub(begin)))
	}
}

// watchLag samples how many records the slowest follower is behind the
// leader's log until told to stop, and returns the largest gap seen.
func (d *deployment) watchLag(stop <-chan struct{}) int64 {
	var worst int64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return worst
		case <-tick.C:
		}
		sizes := d.logSizes()
		for _, follower := range sizes[1:] {
			worst = max(worst, sizes[0]-follower)
		}
	}
}

// logSizes returns each replica's total log size, leader first. A node
// that has not created the topic yet counts as empty.
func (d *deployment) logSizes() []int64 {
	sizes := make([]int64, len(d.nodes))
	for i, b := range d.nodes {
		t, err := b.Topic(topicName)
		if err != nil {
			continue
		}
		for p := 0; p < partitions; p++ {
			if n, err := t.LogSize(p); err == nil {
				sizes[i] += n
			}
		}
	}
	return sizes
}

// awaitReplicas waits until every replica's log is as long as the
// leader's.
func (d *deployment) awaitReplicas(timeout time.Duration) error {
	if d.nodes == nil {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		sizes := d.logSizes()
		if sizes[1] == sizes[0] && sizes[2] == sizes[0] {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("log sizes %v differ after %s", sizes, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// closedWire is the closed-loop phase over the wire: the two producers
// send back to back for the window, then the group drains. A sender
// here waits for a timer (the followers' pull tickers), not for a CPU,
// so one window repeats to well under a percent (README, noise finding
// 4) and serve.alarms_per_s is alarms committed over first send → last
// commit.
func (r *run) closedWire(d *deployment, window time.Duration) (closedStats, error) {
	st := closedStats{}
	before := d.p.produced()
	pipe0 := stageSums(d.pipe)
	cpu0 := cpuTime()
	m0 := r.memStats()
	start := time.Now()
	deadline := start.Add(window)
	gens := make([]genStats, len(d.senders))
	var wg sync.WaitGroup
	for i := range d.senders {
		src := r.e.take(int(window.Seconds()*1000) + 16)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gens[i] = sendUntil(d.senders[i], src, deadline)
		}(i)
	}
	wg.Wait()
	for _, g := range gens {
		d.sent = append(d.sent, g.sent...)
		if g.err != nil {
			return st, fmt.Errorf("send: %w", g.err)
		}
	}
	produced := d.p.produced() - before
	missing, last := d.p.awaitCommitted(before+produced, commitWithin)
	m1 := r.memStats()
	st.alarms = produced - missing
	st.elapsed = last.Sub(start)
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.cpu = cpuTime() - cpu0
	st.perSec = []float64{float64(st.alarms) / st.elapsed.Seconds()}
	st.busy = stageSums(d.pipe)
	for stage := range st.busy {
		st.busy[stage] -= pipe0[stage]
	}
	st.batches = d.svc.Stats().Batches
	r.attempted += produced
	r.failed += missing
	return st, nil
}

// sendUntil sends alarms back to back until the deadline.
func sendUntil(sender broker.RecordSender, src []alarm.Alarm, deadline time.Time) genStats {
	var g genStats
	var buf []byte
	cdc := codec.FastCodec{}
	for i := range src {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		var err error
		if buf, err = cdc.Marshal(buf[:0], &src[i]); err != nil {
			g.err = err
			return g
		}
		val := append([]byte(nil), buf...)
		if _, _, err := sender.SendAt([]byte(src[i].DeviceMAC), val, now); err != nil {
			g.err = err
			return g
		}
		g.sent = append(g.sent, src[i])
	}
	return g
}

// closedRounds is the closed-loop phase in process: rounds of a
// preloaded backlog drained by a fresh broker, store and service, for
// as long as the budget lasts (one discarded warm-up round, then at
// least three measured). A single CPU-bound drain varies by ±15 % and
// more on a small VM (README, noise finding 4), so serve.alarms_per_s
// is the median over rounds.
func (r *run) closedRounds(budget time.Duration, tr *tracer) (closedStats, error) {
	st := closedStats{busy: make(map[metrics.Stage]time.Duration)}
	begin := time.Now()
	var roundWall time.Duration
	for round := 0; ; round++ {
		measured := round - 1 // round 0 warms up
		if measured >= 3 && time.Since(begin)+roundWall > budget {
			return st, nil
		}
		roundStart := time.Now()
		// The verdict comparison re-classifies the whole round, so it
		// runs once, on the first measured round.
		one, err := r.drainRound(tr, measured == 0)
		if err != nil {
			return st, err
		}
		roundWall = time.Since(roundStart)
		if measured < 0 {
			continue
		}
		st.perSec = append(st.perSec, float64(one.alarms)/one.elapsed.Seconds())
		st.alarms += one.alarms
		st.mallocs += one.mallocs
		st.elapsed += one.elapsed
		st.cpu += one.cpu
		st.batches += one.batches
		for stage, sum := range one.busy {
			st.busy[stage] += sum
		}
	}
}

// drainRound preloads one backlog into a fresh deployment and times the
// service draining it: start → the commit that covers the last record.
func (r *run) drainRound(tr *tracer, full bool) (closedStats, error) {
	var st closedStats
	d, err := r.e.deployLocal(r.w.wal, r.w.seedShare, tr)
	if err != nil {
		return st, fmt.Errorf("deploy: %w", err)
	}
	defer func() { r.check("close", d.close()) }()
	backlog := r.e.take(r.e.sc.roundAlarms)
	if err := d.preload(backlog); err != nil {
		return st, err
	}
	runtime.GC()

	cpu0 := cpuTime()
	m0 := r.memStats()
	start := time.Now()
	d.svc.Start()
	missing, last := d.p.awaitCommitted(int64(len(backlog)), time.Minute)
	m1 := r.memStats()
	st.cpu = cpuTime() - cpu0
	st.alarms = int64(len(backlog)) - missing
	st.elapsed = last.Sub(start)
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.busy = stageSums(d.pipe)
	st.batches = d.svc.Stats().Batches
	r.attempted += int64(len(backlog))
	r.failed += missing
	if missing > 0 {
		return st, fmt.Errorf("drain stalled with %d of %d records uncommitted: %v", missing, len(backlog), d.svc.Err())
	}

	r.verifyCounts(d)
	if full {
		r.check("verdicts", d.verdictsMatch())
	}
	if full && r.w.wal {
		dir := d.dir
		want := d.seeded + len(d.sent)
		r.check("close", d.stop())
		_, got, err := reopen(dir)
		if err == nil && got != want {
			err = fmt.Errorf("recovered %d documents, stored %d", got, want)
		}
		r.check("recovery", err)
	}
	return st, nil
}

// reopen opens a WAL directory again, as a restarted process would, and
// returns how long recovery took and how many alarms came back.
func reopen(dir string) (time.Duration, int, error) {
	start := time.Now()
	db, err := docstore.OpenDB(dir, walOptions)
	if err != nil {
		return 0, 0, err
	}
	h, err := core.NewHistory(db)
	took := time.Since(start)
	n := 0
	if err == nil {
		n = h.Len()
	}
	return took, n, errors.Join(err, db.Close())
}

// stageSums reads the total time each pipeline stage was busy from the
// program's own stage histograms (nil pipe: an untraced pass).
func stageSums(pipe *metrics.Pipeline) map[metrics.Stage]time.Duration {
	out := make(map[metrics.Stage]time.Duration)
	if pipe == nil {
		return out
	}
	for stage, snap := range pipe.Snapshot().Stages {
		out[stage] = snap.Sum
	}
	return out
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// logf writes progress to standard error; standard output carries only
// the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}
