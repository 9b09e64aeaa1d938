package core

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/docstore"
)

// History is the batch component of Figure 2: long-term alarm storage
// in the document store, indexed and shard-keyed by device address,
// answering the per-device histogram queries of §4.1 ("a histogram of
// the number of alarms starting from a specific time t"). Because the
// device address is the collection's shard key, one device's alarms
// land in one store partition and the histogram query touches exactly
// that partition.
type History struct {
	db  *docstore.DB
	col *docstore.Collection
	// fb stores operator feedback (the /feedback endpoint): eventual
	// ground-truth verdicts the retrainer folds into the next train
	// set. Written synchronously — feedback volume is human-scale.
	fb *docstore.Collection
	// rttNanos, when non-zero, is slept once per store round-trip
	// (ingest or query). The paper's deployment talks to a remote
	// MongoDB; the in-memory store otherwise answers in nanoseconds,
	// which would hide the I/O overlap the sharded service exploits.
	rttNanos atomic.Int64

	// wb, when non-nil, is the write-behind buffer: Record/RecordBatch
	// enqueue and return immediately, a flusher goroutine drains the
	// queue into one InsertRows per flush (coalescing batches from all
	// shards into one store round-trip), and query paths barrier on
	// the queue so reads always observe prior writes. Published
	// atomically so EnableWriteBehind is safe against concurrent use.
	wb     atomic.Pointer[writeBehind]
	wbOnce sync.Once

	// rows recycles the typed row batches alarms are written and read
	// through, so neither direction allocates per alarm.
	rows sync.Pool
}

// alarmFields is the stored form of an alarm: one typed column per
// field, in the order fillRow writes and rowAlarm reads. DeviceIP
// (duplicates the MAC as device identity) and Payload (wire-size
// padding, §5.5.2) are not stored. The sensor-specific fields ride
// along so retraining from the store keeps the §5.3.4 extra features
// (flexible schema: older rows without them read back as empty
// strings).
var alarmFields = []string{"alarmId", "deviceMac", "zip", "ts", "duration",
	"alarmType", "objectType", "sensorType", "swVersion"}

// fillRow writes an alarm into a row of alarmFields.
//
//alarmvet:hotpath
func fillRow(row []docstore.Cell, a *alarm.Alarm) {
	row[0] = docstore.Int64(a.ID)
	row[1] = docstore.String(a.DeviceMAC)
	row[2] = docstore.String(a.ZIP)
	row[3] = docstore.Float(float64(a.Timestamp.Unix()))
	row[4] = docstore.Float(a.Duration)
	row[5] = docstore.String(a.Type.String())
	row[6] = docstore.String(a.ObjectType.String())
	row[7] = docstore.String(a.SensorType)
	row[8] = docstore.String(a.SoftwareVersion)
}

// rowAlarm rebuilds an alarm from a row of alarmFields — the inverse
// of fillRow, at the store's whole-second timestamp resolution.
func rowAlarm(row []docstore.Cell) alarm.Alarm {
	a := alarm.Alarm{
		ID:              row[0].I64(),
		DeviceMAC:       row[1].Str(),
		ZIP:             row[2].Str(),
		Duration:        row[4].Num(),
		SensorType:      row[7].Str(),
		SoftwareVersion: row[8].Str(),
	}
	if row[3].Present() {
		a.Timestamp = time.Unix(row[3].I64(), 0).UTC()
	}
	a.Type, _ = alarm.ParseType(row[5].Str())
	a.ObjectType, _ = alarm.ParseObjectType(row[6].Str())
	return a
}

// insert stores alarms through a pooled row batch.
//
//alarmvet:hotpath
func (h *History) insert(alarms []alarm.Alarm) {
	rows := h.rows.Get().(*docstore.Rows)
	for i := range alarms {
		fillRow(rows.Next(), &alarms[i])
	}
	h.col.InsertRows(rows)
	rows.Reset()
	h.rows.Put(rows)
}

// SetSimulatedRTT makes every history round-trip (RecordBatch,
// Record, DeviceHistogram) take at least d, emulating the network
// latency of the remote document store in the paper's deployment
// (§4.3). Zero (the default) disables the simulation. With
// write-behind enabled, ingest pays the RTT once per flush instead of
// once per batch. Safe to call concurrently with queries.
func (h *History) SetSimulatedRTT(d time.Duration) { h.rttNanos.Store(int64(d)) }

func (h *History) simulateRTT() {
	if d := h.rttNanos.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// NewHistory binds the alarm history to a document-store collection
// shard-keyed by device address and creates the device-address index
// the histogram queries need.
func NewHistory(db *docstore.DB) (*History, error) {
	col, err := db.CollectionWithShardKey("alarms", "deviceMac")
	if err != nil {
		return nil, err
	}
	if err := col.CreateIndex("deviceMac"); err != nil &&
		!errors.Is(err, docstore.ErrIndexExists) {
		return nil, err
	}
	h := &History{db: db, col: col, fb: db.Collection("feedback")}
	h.rows.New = func() any { return col.NewRows(alarmFields...) }
	return h, nil
}

// writeBehind is a bounded asynchronous ingest queue. Producers block
// only when the queue is at capacity (bounded queueing: backpressure
// instead of unbounded buffering), and one flusher goroutine turns
// however many alarms accumulated during the previous store
// round-trip into a single InsertRows. The queue holds alarm copies,
// in two buffers the flusher swaps, so enqueueing allocates nothing
// once both have grown to the working batch size.
type writeBehind struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []alarm.Alarm
	spare    []alarm.Alarm
	max      int
	flushing bool
	closed   bool
	flushes  int64
	done     chan struct{}
}

// EnableWriteBehind switches the history to asynchronous ingest with
// the given queue bound (alarms; <= 0 selects 4096). Call Close to
// flush the queue and stop the flusher. Enabling twice (even
// concurrently) is a no-op.
func (h *History) EnableWriteBehind(maxQueued int) {
	h.wbOnce.Do(func() {
		if maxQueued <= 0 {
			maxQueued = 4096
		}
		wb := &writeBehind{max: maxQueued, done: make(chan struct{})}
		wb.cond = sync.NewCond(&wb.mu)
		h.wb.Store(wb)
		go h.flusher(wb)
	})
}

// flusher drains the write-behind queue: each pass swaps out the
// whole queue and persists it with one InsertRows (one simulated
// round-trip), so batches enqueued by many shards while a flush is in
// flight coalesce into the next one.
func (h *History) flusher(wb *writeBehind) {
	for {
		wb.mu.Lock()
		for len(wb.queue) == 0 && !wb.closed {
			wb.cond.Wait()
		}
		if len(wb.queue) == 0 && wb.closed {
			wb.mu.Unlock()
			close(wb.done)
			return
		}
		batch := wb.queue
		wb.queue, wb.spare = wb.spare[:0], nil
		wb.flushing = true
		wb.cond.Broadcast() // queue has room again
		wb.mu.Unlock()

		h.simulateRTT()
		h.insert(batch)
		clear(batch) // drop the copies' string references

		wb.mu.Lock()
		wb.spare = batch
		wb.flushing = false
		wb.flushes++ // a completed flush: everything swapped out is durable
		wb.cond.Broadcast()
		wb.mu.Unlock()
	}
}

// enqueue appends copies of the alarms to the write-behind queue,
// blocking while the queue is at capacity. After Close it reports
// false and the caller falls back to a synchronous write. The copies
// outlive the caller's batch, and a decoded alarm's Payload is a view
// of its leased record (codec.FastCodec.UnmarshalScratch): the queue drops it —
// it is not stored anyway.
//
//alarmvet:hotpath
func (wb *writeBehind) enqueue(alarms []alarm.Alarm) bool {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	for !wb.closed && len(wb.queue) >= wb.max {
		wb.cond.Wait()
	}
	if wb.closed {
		return false
	}
	wb.queue = append(wb.queue, alarms...)
	for i := len(wb.queue) - len(alarms); i < len(wb.queue); i++ {
		wb.queue[i].Payload = ""
	}
	wb.cond.Broadcast()
	return true
}

// Flush is the history's durability barrier: it blocks until every
// alarm enqueued before the call has been handed to the store, then
// reports the store's sticky durability error (docstore DB.Err) — on a
// WAL-backed store, non-nil means some write since open exists in
// memory only, and the caller must not acknowledge (commit) past it.
func (h *History) Flush() error {
	h.barrier()
	return h.db.Err()
}

// Err reports the store's sticky durability error without waiting for
// anything: non-nil once a WAL append has failed, from then on.
func (h *History) Err() error { return h.db.Err() }

// barrier blocks until every alarm enqueued before the call is in the
// store — what reads need to observe prior writes. It waits on a flush
// generation, not on the queue going empty, so concurrent writers
// refilling the queue cannot starve it: at most two flush completions
// (the in-flight one plus the one covering the current queue) release
// it. A no-op without write-behind.
func (h *History) barrier() {
	wb := h.wb.Load()
	if wb == nil {
		return
	}
	wb.mu.Lock()
	target := wb.flushes
	if wb.flushing {
		target++
	}
	if len(wb.queue) > 0 {
		target++
	}
	for wb.flushes < target {
		wb.cond.Wait()
	}
	wb.mu.Unlock()
}

// WriteBehindFlushes returns how many store round-trips the flusher
// has completed — with coalescing this is well below the number of
// RecordBatch calls under load.
func (h *History) WriteBehindFlushes() int64 {
	wb := h.wb.Load()
	if wb == nil {
		return 0
	}
	wb.mu.Lock()
	defer wb.mu.Unlock()
	return wb.flushes
}

// Fields reports how the store holds each alarm field (docstore
// Collection.Fields): nine typed columns, none boxed, while the typed
// path is serving the history.
func (h *History) Fields() []docstore.FieldInfo { return h.col.Fields() }

// AggPartials reports how the store brought its cached aggregation
// partials up to date for the standing queries (docstore
// Collection.AggPartialStats).
func (h *History) AggPartials() docstore.AggPartialStats { return h.col.AggPartialStats() }

// SetRetention bounds the alarm history to maxAge of ingest: on a
// durable store, documents whose timestamp has aged out are pruned at
// every checkpoint (docstore Collection.SetRetention on the "ts"
// field); on a memory-only store the window is registered and pruning
// is the caller's (or a test's) explicit PruneExpired call. A
// non-positive maxAge clears the bound.
func (h *History) SetRetention(maxAge time.Duration) {
	h.col.SetRetention("ts", maxAge)
}

// Close flushes any queued writes and stops the write-behind flusher.
// Safe to call more than once and without write-behind enabled, and
// safe against concurrent producers: an in-flight Record/RecordBatch
// either lands in the queue before the close (the flusher drains the
// whole queue before exiting — nothing queued is ever dropped) or
// observes the closed state and falls back to a synchronous store
// write. Concurrent Flush calls are released once their generation's
// documents are durable.
func (h *History) Close() {
	wb := h.wb.Load()
	if wb == nil {
		return
	}
	wb.mu.Lock()
	if !wb.closed {
		wb.closed = true
		wb.cond.Broadcast()
	}
	wb.mu.Unlock()
	<-wb.done
}

// Record stores one alarm (the flexible-schema ingest path of §4.3).
func (h *History) Record(a *alarm.Alarm) {
	one := [1]alarm.Alarm{*a}
	h.RecordBatch(one[:])
}

// RecordBatch stores many alarms at once. With write-behind enabled
// it only enqueues copies (blocking when the queue is full); the
// flusher persists them asynchronously and query paths barrier on the
// queue, so reads still observe prior writes.
//
//alarmvet:hotpath
func (h *History) RecordBatch(alarms []alarm.Alarm) {
	if len(alarms) == 0 {
		return
	}
	if wb := h.wb.Load(); wb != nil && wb.enqueue(alarms) {
		return
	}
	h.simulateRTT()
	h.insert(alarms)
}

// RecentAlarms returns up to limit of the most recently ingested
// alarms in chronological order — the retrainer's train-set window.
// The read is a typed tail scan (docstore Collection.TailRows): each
// store partition hands over its limit newest rows under one lock,
// column by column, and alarms are rebuilt from the cells without a
// document in between — so the cost depends on limit, not on how
// large the history has grown over the daemon's lifetime. limit <= 0
// returns everything.
func (h *History) RecentAlarms(limit int) ([]alarm.Alarm, error) {
	h.barrier()
	h.simulateRTT()
	rows := h.rows.Get().(*docstore.Rows)
	h.col.TailRows(limit, rows)
	out := make([]alarm.Alarm, rows.Len())
	for i := range out {
		out[i] = rowAlarm(rows.Row(i))
	}
	rows.Reset()
	h.rows.Put(rows)
	// Ingest order approximates time order but concurrent shards can
	// interleave; restore strict chronology for the Δt-windowed
	// train/holdout split (stable: equal timestamps keep ingest order).
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp.Before(out[j].Timestamp) })
	return out, nil
}

// Feedback is one operator verdict: the eventual ground truth for an
// alarm, reported once the intervention force (or the premise owner)
// resolved it. Feedback is the signal the §4.1 "periodic offline"
// retraining loop closes on.
type Feedback struct {
	AlarmID   int64
	DeviceMAC string
	Verdict   alarm.Label
	At        time.Time
}

// RecordFeedback stores one operator verdict.
func (h *History) RecordFeedback(f Feedback) {
	h.simulateRTT()
	h.fb.Insert(docstore.Doc{
		"alarmId":   f.AlarmID,
		"deviceMac": f.DeviceMAC,
		"verdict":   int(f.Verdict),
		"at":        float64(f.At.Unix()),
	})
}

// FeedbackCount returns how many operator verdicts have been
// recorded.
func (h *History) FeedbackCount() int { return h.fb.Len() }

// Feedbacks returns every recorded verdict in insertion order; when
// an alarm received several verdicts, the later one wins during
// retraining (FeedbackLabels keeps the last).
func (h *History) Feedbacks() ([]Feedback, error) {
	h.simulateRTT()
	docs, err := h.fb.Find(nil)
	if err != nil {
		return nil, err
	}
	out := make([]Feedback, 0, len(docs))
	for _, d := range docs {
		f := Feedback{}
		f.AlarmID, _ = d["alarmId"].(int64)
		f.DeviceMAC, _ = d["deviceMac"].(string)
		if v, ok := d["verdict"].(int); ok {
			f.Verdict = alarm.Label(v)
		}
		if ts, ok := d["at"].(float64); ok {
			f.At = time.Unix(int64(ts), 0).UTC()
		}
		out = append(out, f)
	}
	return out, nil
}

// FeedbackLabels collapses all recorded verdicts into the override
// map TrainWithFeedback consumes (last verdict per alarm wins).
func (h *History) FeedbackLabels() (map[int64]alarm.Label, error) {
	fbs, err := h.Feedbacks()
	if err != nil {
		return nil, err
	}
	out := make(map[int64]alarm.Label, len(fbs))
	for _, f := range fbs {
		out[f.AlarmID] = f.Verdict
	}
	return out, nil
}

// Len returns the number of stored alarms, including any still queued
// in the write-behind buffer.
func (h *History) Len() int {
	h.barrier()
	return h.col.Len()
}

// HistogramBucket is one bar of a device's alarm histogram.
type HistogramBucket struct {
	Start time.Time
	Count int
}

// DeviceHistogram returns the histogram of a device's alarms since
// the given time, bucketed by the given width — the historic analysis
// operators use to spot recurring problems (§6, lesson 3).
//
// The query executes as a pushdown Bucket aggregation: the bar counts
// are computed inside the store partition that owns the device (the
// deviceMac equality is on the shard key), so no timestamps — let
// alone documents — stream out; only the final (bucket, count) pairs
// do. Every call recomputes: typed plans carry no cache key (building
// one cost more than the index probe and count it would save), and
// their partials live in the sweep's own memory.
func (h *History) DeviceHistogram(mac string, since time.Time, bucket time.Duration) ([]HistogramBucket, error) {
	out, err := h.DeviceHistograms([]string{mac}, since, bucket)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// DeviceHistograms answers one histogram per device in a single
// history round-trip (one simulated RTT, when SetSimulatedRTT set one):
// the batch executes as one typed pushdown Bucket sweep (docstore
// Collection.BucketCounts) — the touched partitions are visited one
// after another, once each; each probes the device index and counts
// every resident device's bars off the timestamp column as sorted
// runs, and only the (bucket, count) pairs travel; no filter document
// goes in and no result document comes out. Result i corresponds to
// macs[i].
func (h *History) DeviceHistograms(macs []string, since time.Time, bucket time.Duration) ([][]HistogramBucket, error) {
	var sc histScratch
	sc.macs = macs
	err := h.deviceHistograms(&sc, since, bucket)
	return sc.out, err
}

// histScratch is the memory of one DeviceHistograms sweep: the devices
// asked about, their typed filters (two conditions each, one slab) and
// the answers (every device's bars back to back in one slab, out[i] a
// view of device i's; a view taken before the slab grew keeps the old
// array, whose bars are never rewritten within a sweep). The pipeline's
// Persist stage keeps one on its ConsumerApp, so a micro-batch's sweep —
// one round-trip for its N distinct devices instead of N serialized
// ones — allocates only what the store does.
type histScratch struct {
	macs    []string
	conds   []docstore.Cond
	filters [][]docstore.Cond
	bars    []HistogramBucket
	out     [][]HistogramBucket
}

// deviceHistograms answers sc.macs into sc.out, reusing sc's memory;
// the answers are valid until sc's next sweep.
func (h *History) deviceHistograms(sc *histScratch, since time.Time, bucket time.Duration) error {
	sc.out = sc.out[:0]
	if len(sc.macs) == 0 {
		return nil
	}
	h.barrier()
	h.simulateRTT()
	if bucket <= 0 {
		bucket = time.Hour
	}
	origin := float64(since.Unix())
	sc.conds, sc.filters = sc.conds[:0], sc.filters[:0]
	for _, mac := range sc.macs {
		sc.conds = append(sc.conds,
			docstore.Cond{Field: "deviceMac", Op: "$eq", Value: docstore.String(mac)},
			docstore.Cond{Field: "ts", Op: "$gte", Value: docstore.Float(origin)})
	}
	for i := range sc.macs {
		sc.filters = append(sc.filters, sc.conds[2*i:2*i+2])
	}
	sc.bars = sc.bars[:0]
	if sc.bars == nil {
		sc.bars = []HistogramBucket{} // a device without alarms answers [], not nil (the HTTP edge encodes it)
	}
	return h.col.BucketCounts(sc.filters,
		docstore.Bucket{Field: "ts", Origin: origin, Width: bucket.Seconds()},
		func(_ int, bars []docstore.BucketCount) {
			start := len(sc.bars)
			for _, b := range bars {
				sc.bars = append(sc.bars, HistogramBucket{Start: time.Unix(int64(b.Start), 0).UTC(), Count: b.Count})
			}
			sc.out = append(sc.out, sc.bars[start:len(sc.bars):len(sc.bars)])
		})
}

// DeviceCount is one entry of a top-devices ranking: a device and how
// many alarms it contributed in the history.
type DeviceCount struct {
	Mac   string `json:"mac"`
	Count int    `json:"count"`
}

// TopDevices returns the k devices with the most stored alarms,
// descending (ties broken by ingest order). The ranking runs as a
// typed pushdown group count (docstore Collection.GroupCounts) — each
// partition keeps its resident devices' counts and folds in only the
// alarms stored since the last ask, and only the per-device partial
// counts travel — with the k largest selected from the merged group
// set in one pass. This is the /stats "noisiest devices" panel (§6,
// lesson 3: recurring-problem devices dominate the alarm stream).
func (h *History) TopDevices(k int) ([]DeviceCount, error) {
	if k <= 0 {
		return nil, nil
	}
	h.simulateRTT()
	groups, err := h.groupCounts("deviceMac")
	if err != nil {
		return nil, err
	}
	// out holds the best so far, descending. Groups come in ingest
	// order, so one goes in behind every count it does not beat.
	out := make([]DeviceCount, 0, min(k, len(groups)))
	for _, g := range groups {
		if len(out) == cap(out) && g.Count <= out[len(out)-1].Count {
			continue
		}
		at := sort.Search(len(out), func(i int) bool { return out[i].Count < g.Count })
		if len(out) < cap(out) {
			out = append(out, DeviceCount{})
		}
		copy(out[at+1:], out[at:])
		out[at] = DeviceCount{Mac: g.Key.Str(), Count: g.Count}
	}
	return out, nil
}

// groupCounts is the typed group-count read the location and
// top-device queries share, behind the write-behind barrier.
func (h *History) groupCounts(field string) ([]docstore.GroupCount, error) {
	h.barrier()
	return h.col.GroupCounts(nil, field)
}

// CountByLocation aggregates alarm counts per ZIP code (the
// location-histogram query of §4.2).
func (h *History) CountByLocation() (map[string]int, error) {
	groups, err := h.groupCounts("zip")
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(groups))
	for _, g := range groups {
		out[g.Key.Str()] = g.Count
	}
	return out, nil
}
