// Package metrics measures the serving system's latency: lock-free
// sharded histograms record per-stage (decode, classify, persist,
// commit) and end-to-end durations on the hot path, and mergeable
// snapshots aggregate them across shards for the HTTP /metrics and
// /stats endpoints. The histograms are log-bucketed — each power of
// two of microseconds splits into eight linear sub-buckets, a ≤ 12.5 %
// relative bucket width — so one fixed 2.4 KB counter array spans
// microseconds to days with quantile error far below the p50/p95/p99
// differences the overload experiments assert on.
//
// Record is wait-free: the writer picks one of GOMAXPROCS counter
// shards (cheap per-goroutine randomness, no coordination) and does a
// single atomic add, so the pipeline stages can record every
// micro-batch and every record without serializing on a mutex the way
// a naive histogram would under the flash-crowd workloads
// internal/loadgen generates.
package metrics

import (
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"
)

const (
	// bucketUnit is the histogram resolution floor: everything below
	// one microsecond lands in bucket 0.
	bucketUnit = int64(time.Microsecond)
	// subCount linear sub-buckets per power-of-two octave bound the
	// relative bucket width at 1/subCount = 12.5 %.
	subCount = 8
	subBits  = 3
	// numBuckets spans bucket 0 (< 1µs), the sub-octave values
	// (1µs–8µs) and 37 octaves of 8 sub-buckets each; the top bucket
	// absorbs everything past ~11 days.
	numBuckets = 1 + (subCount - 1) + 37*subCount
)

// bucketIndex maps a duration to its histogram bucket.
func bucketIndex(d time.Duration) int {
	v := int64(d)
	if v < bucketUnit {
		return 0
	}
	u := uint64(v / bucketUnit) // whole microseconds, >= 1
	if u < subCount {
		return int(u) // 1..7: exact one-microsecond buckets
	}
	exp := bits.Len64(u) - 1 // octave: u in [2^exp, 2^exp+1), exp >= 3
	sub := (u >> (uint(exp) - subBits)) - subCount
	idx := subCount + (exp-subBits)*subCount + int(sub)
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// bucketBounds returns the [low, high) duration range of a bucket.
func bucketBounds(idx int) (time.Duration, time.Duration) {
	switch {
	case idx == 0:
		return 0, time.Duration(bucketUnit)
	case idx < subCount:
		return time.Duration(int64(idx) * bucketUnit),
			time.Duration(int64(idx+1) * bucketUnit)
	default:
		block := (idx - subCount) / subCount // completed octaves past 8µs
		sub := (idx - subCount) % subCount
		width := int64(1) << uint(block)
		low := (int64(subCount) + int64(sub)) * width * bucketUnit
		return time.Duration(low), time.Duration(low + width*bucketUnit)
	}
}

// histShard is one independently-written slice of a histogram's
// counters. Count and sum ride in the same array-backed struct so a
// shard stays one allocation.
type histShard struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Int64
}

// Histogram is a lock-free latency histogram. Record may be called
// from any number of goroutines concurrently with Snapshot; neither
// ever blocks the other.
type Histogram struct {
	shards []*histShard
	mask   uint64
}

// NewHistogram sizes the histogram's counter shards to the runnable
// parallelism (GOMAXPROCS rounded up to a power of two, capped at 16
// — past that the atomics no longer contend enough to matter).
func NewHistogram() *Histogram {
	n := runtime.GOMAXPROCS(0)
	shards := 1
	for shards < n && shards < 16 {
		shards <<= 1
	}
	h := &Histogram{shards: make([]*histShard, shards), mask: uint64(shards - 1)}
	for i := range h.shards {
		h.shards[i] = &histShard{}
	}
	return h
}

// maxRecord caps one observation at 30 days: latencies beyond it are
// sentinel nonsense (e.g. event-time timestamps fed where enqueue
// times belong), and uncapped they would both pin the top bucket and
// overflow the int64 nanosecond sum after a few thousand records.
const maxRecord = 30 * 24 * time.Hour

// Record adds one observation. Negative durations clamp to zero,
// absurd ones to maxRecord.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if d > maxRecord {
		d = maxRecord
	}
	// rand/v2's top-level generator is per-thread and lock-free: a
	// cheap way to spread concurrent writers across shards without
	// any shared cursor to contend on.
	s := h.shards[rand.Uint64()&h.mask]
	s.counts[bucketIndex(d)].Add(1)
	s.sum.Add(int64(d))
}

// Snapshot folds the live shards into one mergeable, immutable view.
// Concurrent Records may or may not be included (the read is atomic
// per counter, not per histogram) — monitoring semantics. N is
// derived from the bucket counts, so a snapshot's total and its
// bucket contents always agree, even mid-record.
func (h *Histogram) Snapshot() *Snapshot {
	s := &Snapshot{Counts: make([]uint64, numBuckets)}
	for _, sh := range h.shards {
		for i := range sh.counts {
			s.Counts[i] += sh.counts[i].Load()
		}
		s.Sum += time.Duration(sh.sum.Load())
	}
	for _, c := range s.Counts {
		s.N += c
	}
	return s
}

// Snapshot is a point-in-time histogram state.
type Snapshot struct {
	// Counts holds one observation count per log bucket.
	Counts []uint64
	// N is the total observation count.
	N uint64
	// Sum is the sum of all recorded durations.
	Sum time.Duration
}

// Mean returns the average recorded duration (0 when empty).
func (s *Snapshot) Mean() time.Duration {
	if s.N == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.N)
}

// Quantile returns the q-quantile (q in [0,1]) as the midpoint of the
// bucket holding the rank-⌈qN⌉ observation; 0 when empty.
func (s *Snapshot) Quantile(q float64) time.Duration {
	if s.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.N))
	if rank >= s.N {
		rank = s.N - 1
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen > rank {
			low, high := bucketBounds(i)
			return low + (high-low)/2
		}
	}
	low, high := bucketBounds(numBuckets - 1)
	return low + (high-low)/2
}

// Max returns the upper bound of the highest non-empty bucket — a
// tight over-estimate of the largest recorded value.
func (s *Snapshot) Max() time.Duration {
	for i := len(s.Counts) - 1; i >= 0; i-- {
		if s.Counts[i] > 0 {
			_, high := bucketBounds(i)
			return high
		}
	}
	return 0
}
