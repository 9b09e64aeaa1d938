package core

import (
	"time"

	"alarmverify/internal/alarm"
	"alarmverify/internal/broker"
	"alarmverify/internal/codec"
	"alarmverify/internal/metrics"
)

// Batch carries one micro-batch through the composable pipeline
// stages Drain → Decode → Classify → Persist. The stages are the
// Figure 3 workflow split along the paper's component boundaries
// (Figure 12): Decode is the streaming component (deserialization +
// distinct devices), Classify the ML component, Persist the batch
// component (history ingest + per-device histograms).
//
// A Batch is owned by exactly one stage at a time, so the sharded
// service (internal/serve) can run stages of consecutive batches
// concurrently without locking: each stage writes only its own fields.
type Batch struct {
	// Offsets snapshots the consumer positions right after the drain;
	// CommitBatch makes exactly these durable once the batch has been
	// fully persisted, preserving the exactly-once contract even when
	// later batches have already advanced the live positions.
	Offsets map[int]int64

	// Alarms are the decoded, filtered alarms of the batch. On a pooled
	// batch an alarm's Payload is a view of its leased record: a copy of
	// the alarm that outlives the batch must drop it.
	Alarms []alarm.Alarm
	// Devices are the window's distinct alarming device addresses
	// (§4.1), in first-seen order: the devices Persist queries the
	// history for. An address is an interned string, not a view of a
	// leased record.
	Devices []string

	// Verified holds one verification per alarm after Classify.
	Verified []alarm.Verification
	// Times is this batch's component breakdown (Figure 12); stages
	// fill in their own component only. Nothing sums it across batches:
	// serving reports its stage times through ConsumerConfig.Metrics,
	// and the experiments read one replayed batch's.
	Times ComponentTimes

	// Enqueued holds each raw record's broker timestamp (collected by
	// Decode when latency metrics are attached); CommitBatch turns
	// them into per-record end-to-end latencies, so the e2e histogram
	// includes the queueing delay that dominates under overload.
	Enqueued []time.Time
	// Shed marks a batch dropped by load shedding: Classify and
	// Persist are skipped, but its offsets are still committed so the
	// backlog drains instead of being redelivered.
	Shed bool

	// The remaining fields are the reusable scratch of the drain (see
	// Drain): raw records whose Value bytes borrow from broker memory
	// under the drain's one lease, reused across batches through the
	// app's free list. A Batch built outside Drain has none of them.
	recs   []broker.Record
	lease  *broker.Lease
	pooled bool
}

// Len returns the number of decoded alarms in the batch.
func (b *Batch) Len() int { return len(b.Alarms) }

// Drain pulls one micro-batch of raw records off the broker into a
// batch from the app's free list and snapshots the consumer positions
// that CommitBatch will later make durable. Drain must not be called
// concurrently with itself (one intake goroutine per consumer).
//
// The records' payload bytes are borrowed from the broker under a
// lease, not copied out, so the batch must be returned through
// ReleaseBatch once it has fully left the pipeline. A drain is one
// poll: it parks — woken by the first record, for at most idlePoll —
// and takes what is there, up to MaxPerBatch. A batch is whatever
// accumulated while the shard was busy, and one record when it was not,
// so a backlog splits into full batches and a remainder. No second poll
// follows a short one (fewer records than asked for): both consumers
// sweep every assigned partition up to the ask, so it would find only
// what arrived during its own round trip — over the wire, a whole
// fetch — and a response the server's budget cut short just ends that
// batch early. A full poll asked for the batch's whole remainder, so it
// filled the batch. A drain that finds nothing allocates nothing and
// keeps no lease.
//
//alarmvet:hotpath
func (c *ConsumerApp) Drain() *Batch {
	b := c.getBatch()
	// A poll error ends the drain with what the poll returned: the next
	// drain polls again, and a close or a rebalance reaches the shard
	// through its own checks.
	recs, lease, _ := c.consumer.PollLeased(c.cfg.MaxPerBatch, idlePoll, b.recs)
	b.recs = recs
	if len(recs) > 0 {
		b.lease = lease
	} else {
		// An empty poll's lease guards nothing (the consumers hand out a
		// shared released one); release it now so idle polls don't
		// inflate the leak detector.
		lease.Release()
	}
	b.Offsets = c.consumer.PositionsInto(b.Offsets)
	return b
}

// MarkShed flags the batch as dropped by load shedding and counts its
// records. The serve pipeline skips Classify and Persist for shed
// batches but still commits their offsets — shedding must drain the
// backlog, not hide it for redelivery.
func (c *ConsumerApp) MarkShed(b *Batch) {
	b.Shed = true
	if m := c.cfg.Metrics; m != nil {
		m.AddShed(b.Len())
	}
}

// Decode is the streaming component: it deserializes the batch's
// records straight out of their leased views into the batch's reusable
// alarm scratch (codec.FastCodec's scratch path: string fields are
// interned through the app's codec scratch and Payload stays a view of
// the record, valid until the batch's lease is released, so
// steady-state decode performs no heap allocation), and extracts the
// window's distinct alarming devices with the app's seen-set, which
// only Decode reads. Records that fail to decode or carry a zero ID are
// dropped.
//
//alarmvet:hotpath
func (c *ConsumerApp) Decode(b *Batch) {
	start := time.Now()
	alarms := b.Alarms
	for i := range b.recs {
		if len(alarms) < cap(alarms) {
			alarms = alarms[:len(alarms)+1]
		} else {
			alarms = append(alarms, alarm.Alarm{})
		}
		slot := &alarms[len(alarms)-1]
		if err := (codec.FastCodec{}).UnmarshalScratch(b.recs[i].Value, slot, c.sc); err != nil || slot.ID == 0 {
			alarms = alarms[:len(alarms)-1]
		}
	}
	b.Alarms = alarms
	b.Times.Deserialize = time.Since(start)

	start = time.Now()
	devices := b.Devices
	clear(c.seen)
	for i := range b.Alarms {
		mac := b.Alarms[i].DeviceMAC
		if _, ok := c.seen[mac]; !ok {
			c.seen[mac] = struct{}{}
			devices = append(devices, mac)
		}
	}
	b.Devices = devices
	b.Times.Streaming = time.Since(start)

	if m := c.cfg.Metrics; m != nil {
		enq := b.Enqueued
		for i := range b.recs {
			enq = append(enq, b.recs[i].Timestamp)
		}
		b.Enqueued = enq
		m.Stage(metrics.StageDecode).Record(b.Times.Deserialize + b.Times.Streaming)
	}
}

// Classify is the machine-learning component: the batch's alarms are
// verified in chunks of classifyChunk (256), one vectorized
// ml.SparseModel call a chunk, inline on the calling goroutine. Chunk
// k writes the region [k·chunk, (k+1)·chunk) of b.Verified, so results
// stay in batch order without any merge. The sharded pipeline overlaps
// this stage with decode and persist of neighboring batches by giving
// it its own goroutine. The verifier's model snapshot is pinned once
// for the whole micro-batch — not per chunk — so a concurrent hot swap
// (Verifier.Swap) can never split one batch's verifications across
// two models.
func (c *ConsumerApp) Classify(b *Batch) error {
	start := time.Now()
	n := len(b.Alarms)
	if cap(b.Verified) >= n {
		// Pooled batch: reuse the verification scratch; every slot is
		// overwritten below.
		b.Verified = b.Verified[:n]
	} else {
		b.Verified = make([]alarm.Verification, n)
	}
	if n == 0 {
		b.Times.ML = time.Since(start)
		return nil
	}
	snap := c.verifier.snap.Load()
	for lo := 0; lo < n; lo += c.chunk {
		hi := min(lo+c.chunk, n)
		if err := snap.verifyBatchInto(b.Alarms[lo:hi], b.Verified[lo:hi], &c.class); err != nil {
			b.Verified = nil
			return err
		}
	}
	b.Times.ML = time.Since(start)
	if m := c.cfg.Metrics; m != nil {
		m.Stage(metrics.StageClassify).Record(b.Times.ML)
	}
	return nil
}

// Persist is the batch component: it stores the batch's alarms, each
// row carrying its verdict (the only record of it), in the alarm
// history with one store write on this goroutine (timed as
// Times.Ingest) and runs every alarming device's histogram query — which
// sees this batch's own alarms, since they are already stored (timed as
// Times.History). It is the final stage; a batch must not be committed
// before Persist returns.
//
// Persist must not run concurrently with itself on one app: its row
// batch and histogram sweep are the app's. Every caller runs one persist
// goroutine an app — the sharded service's per-shard persist stage and
// the experiments' replay consumer.
func (c *ConsumerApp) Persist(b *Batch) error {
	if c.history != nil {
		start := time.Now()
		c.history.recordBatch(c.rows, b.Alarms, b.Verified)
		b.Times.Ingest = time.Since(start)

		start = time.Now()
		var since time.Time
		if len(b.Alarms) > 0 {
			since = b.Alarms[0].Timestamp.Add(-histogramSince)
		}
		// One batched histogram query for all of the window's devices:
		// one history round-trip, one sweep over the touched
		// partitions, not a round-trip per device.
		c.hist.macs = b.Devices
		if err := c.history.deviceHistograms(&c.hist, since, histogramBucket); err != nil {
			return err
		}
		// Committed ⇒ durable: a failed WAL append leaves the store a
		// sticky error, and this is where it stops the shard — Persist
		// fails, and CommitBatch never runs for alarms that exist only
		// in memory.
		if err := c.history.Flush(); err != nil {
			return err
		}
		b.Times.History = time.Since(start)
	}

	if m := c.cfg.Metrics; m != nil {
		m.Stage(metrics.StagePersist).Record(b.Times.Ingest + b.Times.History)
	}
	return nil
}

// CommitBatch durably commits the offsets captured when b was
// drained. Commits are fenced by the group generation: after a
// rebalance they fail with broker.ErrRebalanceStale and the successor
// resumes from the last durable commit (at-least-once across
// membership changes, exactly-once under stable membership).
//
// With latency metrics attached, a successful commit also closes the
// batch's measurement window: the commit duration lands in the commit
// histogram, and each record's broker-enqueue-to-commit span lands in
// the e2e histogram (shed batches are excluded — their records were
// dropped, not served).
func (c *ConsumerApp) CommitBatch(b *Batch) error {
	start := time.Now()
	if len(b.Offsets) > 0 {
		if err := c.consumer.CommitOffsets(b.Offsets); err != nil {
			return err
		}
	}
	if m := c.cfg.Metrics; m != nil {
		now := time.Now()
		m.Stage(metrics.StageCommit).Record(now.Sub(start))
		if !b.Shed {
			e2e := m.Stage(metrics.StageE2E)
			for _, ts := range b.Enqueued {
				if !ts.IsZero() {
					e2e.Record(now.Sub(ts))
				}
			}
		}
	}
	return nil
}
