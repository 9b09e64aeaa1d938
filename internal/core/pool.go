package core

import (
	"sync"
	"sync/atomic"
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
)

// batchCheckMode, when enabled, makes ReleaseBatch poison the released
// batch's alarm and verification scratch instead of returning it to
// the app's free list, so any stage that keeps reading a batch after
// its release observes sentinel garbage deterministically instead of
// whatever the next batch happened to write there. See SetBatchCheck.
var batchCheckMode atomic.Bool

// SetBatchCheck toggles batch-release checking globally. It is a test
// facility, the pool-level counterpart of broker.SetLeaseCheck: with
// checking on, released batches are poisoned and never reused, turning
// use-after-release aliasing bugs into immediate assertion failures in
// the -race hammers. Production mode (off, the default) recycles the
// batch scratch through the app's free list with no extra work.
func SetBatchCheck(on bool) { batchCheckMode.Store(on) }

// poisonedField marks strings of a released batch in check mode.
const poisonedField = "\xdb\xdbRELEASED-BATCH\xdb\xdb"

// batchList is the app's free list of released batches, the
// broker.LeasePool idiom: a batch ReleaseBatch hands back waits on it
// for the next Drain, and a GC does not empty it as it would a
// sync.Pool, so a warm shard builds no batch again. Nothing caps it: it
// holds what the pipeline once had out at once, which the shard's stage
// queues bound. ReleaseBatch runs on whichever stage retires the batch
// and Drain on the intake goroutine, hence the lock.
type batchList struct {
	mu      sync.Mutex
	batches []*Batch
}

// getBatch takes a batch off the app's free list (or builds a fresh
// one) and resets its scratch for the next drain.
//
//alarmvet:hotpath
func (c *ConsumerApp) getBatch() *Batch {
	l := &c.free
	var b *Batch
	l.mu.Lock()
	if n := len(l.batches); n > 0 {
		b, l.batches = l.batches[n-1], l.batches[:n-1]
	}
	l.mu.Unlock()
	if b == nil {
		b = c.newBatch()
	}
	b.Alarms = b.Alarms[:0]
	b.Devices = b.Devices[:0]
	b.Verified = b.Verified[:0]
	b.Enqueued = b.Enqueued[:0]
	b.recs = b.recs[:0]
	b.Times = ComponentTimes{}
	b.Shed = false
	b.pooled = true
	return b
}

// newBatch builds a batch with its scratch allocated once, for a full
// drain of MaxPerBatch records: records, alarms, devices, verifications
// and enqueue times when metrics are attached. A cold batch then
// regrows none of them on its way through the pipeline.
func (c *ConsumerApp) newBatch() *Batch {
	n := c.cfg.MaxPerBatch
	b := &Batch{
		recs:     make([]broker.Record, 0, n),
		Alarms:   make([]alarm.Alarm, 0, n),
		Devices:  make([]string, 0, n),
		Verified: make([]alarm.Verification, 0, n),
	}
	if c.cfg.Metrics != nil {
		b.Enqueued = make([]time.Time, 0, n)
	}
	return b
}

// ReleaseBatch returns a drained batch's scratch memory for reuse: the
// broker lease over its raw record payloads is released and the batch
// goes back on the app's free list. Call it only after the batch has
// fully left the pipeline — persisted (or shed) and its offsets handed
// to a commit — and never touch the batch, its alarms, or its raw
// record values afterwards. Safe (a no-op) on nil batches and on
// batches not drained by this app; idempotent, since a released batch
// is marked unpooled. In check mode the batch is poisoned instead and
// never comes back.
//
//alarmvet:hotpath
func (c *ConsumerApp) ReleaseBatch(b *Batch) {
	if b == nil || !b.pooled {
		return
	}
	b.pooled = false
	b.lease.Release()
	b.lease = nil
	if batchCheckMode.Load() {
		poisonBatch(b)
		return // poisoned memory must never be drained into again
	}
	l := &c.free
	l.mu.Lock()
	l.batches = append(l.batches, b)
	l.mu.Unlock()
}

// poisonBatch overwrites the batch's decoded scratch with sentinel
// values so post-release readers fail loudly (check mode only).
func poisonBatch(b *Batch) {
	for i := range b.Alarms {
		b.Alarms[i] = alarm.Alarm{ID: -1, DeviceMAC: poisonedField, Payload: poisonedField}
	}
	for i := range b.Devices {
		b.Devices[i] = poisonedField
	}
	for i := range b.Verified {
		b.Verified[i] = alarm.Verification{AlarmID: -1, ModelName: poisonedField}
	}
	clear(b.Offsets)
}
