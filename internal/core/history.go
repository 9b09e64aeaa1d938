package core

import (
	"errors"
	"slices"
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

	// rows recycles the typed row batches RecordBatch writes alarms
	// through (the pipeline's persist stage keeps its own), and reads
	// those RecentAlarms reads through, so neither direction allocates
	// per alarm. They are apart because a read batch grows to
	// the read's limit: a retrain's 50 000-row window would otherwise
	// leave a 14 MB batch for ingest, whose batches hold a drain's few
	// hundred. groups (of *[]docstore.GroupCount) and hists (of
	// *histScratch) recycle what the group counts and DeviceHistogram
	// read through, so a dashboard call allocates only the answer it
	// returns.
	rows   sync.Pool
	reads  sync.Pool
	groups sync.Pool
	hists  sync.Pool
}

// alarmFields is the stored form of an alarm and its verdict: one typed
// column per field, in the order fillRow writes and rowAlarm and
// Verdicts read. DeviceIP (duplicates the MAC as device identity) and
// Payload (wire-size padding, §5.5.2) are not stored. The sensor-specific
// fields ride along so retraining from the store keeps the §5.3.4 extra
// features (flexible schema: older rows without them read back as empty
// strings). The verdict's columns, from verdictCol on, share the alarm's
// row, WAL frame and durability check; a row stored without a verdict
// has no cells there, and reads back unverified.
var alarmFields = []string{"alarmId", "deviceMac", "zip", "ts", "duration",
	"alarmType", "objectType", "sensorType", "swVersion",
	"predicted", "probability", "model", "modelVersion"}

const verdictCol = 9 // alarmFields[verdictCol:] are the verdict's

// fillRow writes an alarm, and its verdict when v is not nil, into a
// row of alarmFields.
//
//alarmvet:hotpath
func fillRow(row []docstore.Cell, a *alarm.Alarm, v *alarm.Verification) {
	row[0] = docstore.Int64(a.ID)
	row[1] = docstore.String(a.DeviceMAC)
	row[2] = docstore.String(a.ZIP)
	row[3] = docstore.Float(float64(a.Timestamp.Unix()))
	row[4] = docstore.Float(a.Duration)
	row[5] = docstore.String(a.Type.String())
	row[6] = docstore.String(a.ObjectType.String())
	row[7] = docstore.String(a.SensorType)
	row[8] = docstore.String(a.SoftwareVersion)
	if v != nil {
		row[9] = docstore.Int64(int64(v.Predicted))
		row[10] = docstore.Float(v.Probability)
		row[11] = docstore.String(v.ModelName)
		row[12] = docstore.Int64(int64(v.ModelVersion))
	}
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

// SetSimulatedRTT makes every history round-trip — each write and each
// read — take at least d, emulating the network latency of the remote
// document store in the paper's deployment (§4.3). Zero (the default)
// disables the simulation. Ingest pays it once per batch, on the
// caller's goroutine, and it is all a persisted batch pays: serving's
// persist stage reads nothing back. Safe to call concurrently with
// queries.
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
	h.reads.New = func() any { return col.NewRows(alarmFields[:verdictCol]...) }
	h.groups.New = func() any { return new([]docstore.GroupCount) }
	h.hists.New = func() any { return &histScratch{sweep: docstore.NewSweep()} }
	return h, nil
}

// EnableWriteBehind does nothing.
//
// Deprecated: a no-op. The persist stage writes its own batch; the
// method stays only because the benchmark harness still calls it, and
// goes once that call does.
func (h *History) EnableWriteBehind(int) {}

// Close does nothing.
//
// Deprecated: a no-op. The history holds no goroutine or queue to
// stop; the method stays only because the benchmark harness still
// calls it, and goes once that call does.
func (h *History) Close() {}

// Flush reports the store's sticky durability error (docstore DB.Err)
// and waits for nothing: every write is in the store when RecordBatch
// returns. On a WAL-backed store, non-nil means some write since open
// exists in memory only, and the caller must not acknowledge (commit)
// past it.
func (h *History) Flush() error { return h.db.Err() }

// Fields reports how the store holds each alarm field (docstore
// Collection.Fields): thirteen typed columns, none boxed, once a
// verified alarm is stored — the alarm's nine and its verdict's four
// (alarmFields); nine while only unverified alarms are.
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

// Record stores one alarm with the verdict it was answered with (the
// flexible-schema ingest path of §4.3, as /verify takes it).
func (h *History) Record(a *alarm.Alarm, v alarm.Verification) {
	one, verdict := [1]alarm.Alarm{*a}, [1]alarm.Verification{v}
	rows := h.rows.Get().(*docstore.Rows)
	h.recordBatch(rows, one[:], verdict[:])
	h.rows.Put(rows)
}

// RecordBatch stores many alarms at once, unverified, in one store
// round-trip on the caller's goroutine: when it returns, every read
// observes them. It seeds a history — a boot train set — and stores no
// verdict.
func (h *History) RecordBatch(alarms []alarm.Alarm) {
	rows := h.rows.Get().(*docstore.Rows)
	h.recordBatch(rows, alarms, nil)
	h.rows.Put(rows)
}

// recordBatch stores alarms, with verdicts[i] in alarm i's row when
// verdicts is not nil, through the caller's row batch, which it leaves
// empty: the pipeline's persist stage keeps its own, so its batches
// need no pool.
//
//alarmvet:hotpath
func (h *History) recordBatch(rows *docstore.Rows, alarms []alarm.Alarm, verdicts []alarm.Verification) {
	if len(alarms) == 0 {
		return
	}
	h.simulateRTT()
	for i := range alarms {
		var v *alarm.Verification
		if verdicts != nil {
			v = &verdicts[i]
		}
		fillRow(rows.Next(), &alarms[i], v)
	}
	h.col.InsertRows(rows)
	rows.Reset()
}

// Verdicts returns every stored alarm that carries a verdict, with it
// (verdicts[i] is alarms[i]'s), in ingest order: one tail read of the
// whole history, so a verdict lasts as long as its row. Rows stored
// without one (RecordBatch's, or an older build's) are skipped;
// LatencyMS is not stored, and reads 0.
func (h *History) Verdicts() ([]alarm.Alarm, []alarm.Verification) {
	h.simulateRTT()
	rows := h.col.NewRows(alarmFields...)
	h.col.TailRows(0, rows)
	var alarms []alarm.Alarm
	var verdicts []alarm.Verification
	for i := 0; i < rows.Len(); i++ {
		row := rows.Row(i)
		if !row[verdictCol].Present() {
			continue
		}
		alarms = append(alarms, rowAlarm(row))
		verdicts = append(verdicts, alarm.Verification{AlarmID: row[0].I64(), Predicted: alarm.Label(row[9].I64()),
			Probability: row[10].Num(), ModelName: row[11].Str(), ModelVersion: int(row[12].I64())})
	}
	return alarms, verdicts
}

// RecentAlarms returns up to limit of the most recently ingested
// alarms in chronological order — the retrainer's train-set window.
// The read is a typed tail read (docstore Collection.TailRows): the
// store merges its partitions' id-ordered tails and copies out exactly
// the limit newest rows, and alarms are rebuilt from the cells without
// a document in between — so the cost depends on limit, not on how
// large the history has grown over the daemon's lifetime, and once its
// pooled row batch has grown to limit the call allocates only the slice
// it returns. limit <= 0 returns everything.
func (h *History) RecentAlarms(limit int) ([]alarm.Alarm, error) {
	h.simulateRTT()
	rows := h.reads.Get().(*docstore.Rows)
	h.col.TailRows(limit, rows)
	out := make([]alarm.Alarm, rows.Len())
	for i := range out {
		out[i] = rowAlarm(rows.Row(i))
	}
	rows.Reset()
	h.reads.Put(rows)
	// Ingest order approximates time order but concurrent shards can
	// interleave; restore strict chronology for the Δt-windowed
	// train/holdout split (stable: equal timestamps keep ingest order).
	slices.SortStableFunc(out, func(a, b alarm.Alarm) int { return a.Timestamp.Compare(b.Timestamp) })
	return out, nil
}

// MaxAlarmID returns the highest stored alarm id, 0 for an empty
// history: one typed tail read of the alarmId column alone, so its cost
// is the column's cells, not the rebuilt and sorted alarms RecentAlarms
// returns.
func (h *History) MaxAlarmID() int64 {
	h.simulateRTT()
	rows := h.col.NewRows(alarmFields[0])
	h.col.TailRows(0, rows)
	var last int64
	for i := 0; i < rows.Len(); i++ {
		last = max(last, rows.Row(i)[0].I64())
	}
	return last
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
	rows := h.fb.NewRows("alarmId", "deviceMac", "verdict", "at")
	h.fb.TailRows(0, rows)
	out := make([]Feedback, rows.Len())
	for i := range out {
		row := rows.Row(i)
		out[i] = Feedback{
			AlarmID:   row[0].I64(),
			DeviceMAC: row[1].Str(),
			Verdict:   alarm.Label(row[2].I64()),
			At:        time.Unix(row[3].I64(), 0).UTC(),
		}
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

// Len returns the number of stored alarms.
func (h *History) Len() int {
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
	sc := h.hists.Get().(*histScratch)
	defer h.hists.Put(sc)
	sc.macs = append(sc.macs[:0], mac)
	if err := h.deviceHistograms(sc, since, bucket); err != nil {
		return nil, err
	}
	return slices.Clone(sc.out[0]), nil
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
// array, whose bars are never rewritten within a sweep). DeviceHistogram
// draws one from the history's pool, so a warm ask allocates only the
// answer it returns. sweep, when set, is the store's sweep memory, kept
// with the rest (the pooled scratch's); without it the store draws one
// from its pool.
type histScratch struct {
	macs    []string
	conds   []docstore.Cond
	filters [][]docstore.Cond
	bars    []HistogramBucket
	out     [][]HistogramBucket
	sweep   *docstore.Sweep
}

// noBars is what a device without alarms answers: [], not nil (the
// HTTP edge encodes it).
var noBars = []HistogramBucket{}

// deviceHistograms answers sc.macs into sc.out, reusing sc's memory;
// the answers are valid until sc's next sweep.
//
//alarmvet:hotpath
func (h *History) deviceHistograms(sc *histScratch, since time.Time, bucket time.Duration) error {
	sc.out = sc.out[:0]
	if len(sc.macs) == 0 {
		return nil
	}
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
		sc.bars = noBars
	}
	by := docstore.Bucket{Field: "ts", Origin: origin, Width: bucket.Seconds()}
	visit := func(_ int, bars []docstore.BucketCount) {
		start := len(sc.bars)
		for _, b := range bars {
			sc.bars = append(sc.bars, HistogramBucket{Start: time.Unix(int64(b.Start), 0).UTC(), Count: b.Count})
		}
		sc.out = append(sc.out, sc.bars[start:len(sc.bars):len(sc.bars)])
	}
	if sc.sweep == nil {
		return h.col.BucketCounts(sc.filters, by, visit)
	}
	return h.col.BucketCountsWith(sc.sweep, sc.filters, by, visit)
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
	scratch := h.groups.Get().(*[]docstore.GroupCount)
	defer h.groups.Put(scratch)
	groups, err := h.col.GroupCounts("deviceMac", (*scratch)[:0])
	*scratch = groups
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

// CountByLocation aggregates alarm counts per ZIP code (the
// location-histogram query of §4.2), from the same cached partials as
// TopDevices.
func (h *History) CountByLocation() (map[string]int, error) {
	h.simulateRTT()
	scratch := h.groups.Get().(*[]docstore.GroupCount)
	defer h.groups.Put(scratch)
	groups, err := h.col.GroupCounts("zip", (*scratch)[:0])
	*scratch = groups
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(groups))
	for _, g := range groups {
		out[g.Key.Str()] = g.Count
	}
	return out, nil
}
