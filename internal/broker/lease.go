package broker

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// leaseCheckMode is SetLeaseCheck's switch.
var leaseCheckMode atomic.Bool

// SetLeaseCheck toggles the lease-checking mode globally, a test
// facility: with checking on, every leased fetch copies record values
// into lease-owned buffers, and Lease.Release overwrites those and a wire
// consumer's receive buffer with the 0xDB poison byte and retires the
// lease, turning use-after-release bugs into immediate, deterministic
// data corruption the aliasing tests assert on. Production mode (off, the
// default) hands out views with no extra copy and recycles leases.
func SetLeaseCheck(on bool) { leaseCheckMode.Store(on) }

// leasePoison fills released check-mode buffers.
const leasePoison = 0xDB

// valueArena owns the payload bytes of a partition's in-memory log.
// Append copies record keys and values into fixed-size blocks, so the
// log never aliases producer buffers (producers may reuse theirs) and
// fetched Record views borrow from stable arena memory until released.
// Blocks are append-only: once a view is handed out, its block is
// never rewritten, only eventually garbage-collected when no record
// references it.
type valueArena struct {
	block []byte
}

// arenaBlockSize is the allocation unit of the value arena; payloads
// larger than a block get a dedicated block.
const arenaBlockSize = 64 << 10

// hold copies b into the arena and returns a stable, capacity-clamped
// view of the copy. Empty input returns nil without touching the arena.
func (a *valueArena) hold(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if cap(a.block)-len(a.block) < len(b) {
		size := arenaBlockSize
		if len(b) > size {
			size = len(b)
		}
		// The previous block stays alive for exactly as long as records
		// reference it; replacing the slice header never moves it.
		a.block = make([]byte, 0, size)
	}
	n := len(a.block)
	a.block = append(a.block, b...)
	return a.block[n : n+len(b) : n+len(b)]
}

// Lease is the borrow handle of a leased fetch: every Record returned
// alongside it has a Value (and Key) that borrows from memory valid only
// until Release — the broker's arena in process, the lease's own receive
// buffer over the wire, where the next fetch overwrites it. Callers must
// call Release exactly once, after the last touch of any borrowed
// Record; the pipeline releases when a batch's scratch is recycled,
// after its offsets are committed. Release is safe from any goroutine.
type Lease struct {
	// live is set while the lease is lent: the zero Lease is released.
	live atomic.Bool
	// pool is the free list Release returns the lease to; nil for
	// noLease, which nothing recycles.
	pool *LeasePool
	// buf is the memory the lease owns (a wire consumer's receive
	// buffer), bufs the check-mode private copies of an in-process fetch.
	buf  []byte
	bufs [][]byte
}

// Release returns the borrowed memory — and, from a consumer's poll,
// the lease itself — for reuse. After Release the values of the records
// fetched under this lease must not be touched: over the wire they read
// the next fetch, and in lease-check mode they are poisoned to make the
// violation deterministic. A second Release is absorbed only until the
// lease is lent again; after that a stale holder's Release ends the new
// holder's borrow, which no flag on a recycled handle can tell apart.
// Check mode therefore retires a released lease instead of recycling it
// and panics on its second Release.
//
//alarmvet:hotpath
func (l *Lease) Release() {
	if l == nil {
		return
	}
	check := leaseCheckMode.Load()
	if !l.live.Swap(false) {
		if check && l.pool != nil {
			panic("broker: pooled lease released twice")
		}
		return
	}
	if check {
		for _, b := range append(l.bufs, l.buf) {
			for i := range b {
				b[i] = leasePoison
			}
		}
	}
	l.bufs = nil
	if p := l.pool; p != nil {
		p.mu.Lock()
		p.stats.Active--
		if check {
			p.stats.Bytes -= int64(cap(l.buf))
		} else {
			p.free = append(p.free, l)
		}
		p.mu.Unlock()
	}
}

// Released reports whether the lease has been released.
func (l *Lease) Released() bool { return !l.live.Load() }

// LeaseStats is a LeasePool's occupancy: leases lent, leases on the free
// list, and the bytes of buffer the two own between them.
type LeaseStats struct{ Active, Free, Bytes int64 }

// LeasePool is the free list a consumer's polls draw their leases from,
// in this package and in internal/netbroker. Nothing caps it: it holds
// what was once lent at the same time, which the batches a shard's
// pipeline can hold bound. The zero value is ready to use.
type LeasePool struct {
	mu    sync.Mutex
	free  []*Lease
	stats LeaseStats
}

// Lend hands out a lease that owns buf until its Release, off the free
// list when one waits there, and returns the buffer that lease owned
// before, emptied, for the caller's next read.
//
//alarmvet:hotpath
func (p *LeasePool) Lend(buf []byte) (*Lease, []byte) {
	p.mu.Lock()
	var l *Lease
	if n := len(p.free); n > 0 {
		l, p.free = p.free[n-1], p.free[:n-1]
	} else {
		l = p.grow()
	}
	spare := l.buf[:0]
	l.buf = buf
	p.stats.Active++
	p.stats.Bytes += int64(cap(buf) - cap(spare))
	p.mu.Unlock()
	l.live.Store(true)
	return l, spare
}

// grow makes the lease of a Lend that found the free list empty.
func (p *LeasePool) grow() *Lease { return &Lease{pool: p} }

// Stats snapshots the pool's occupancy.
func (p *LeasePool) Stats() LeaseStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Free = int64(len(p.free))
	return st
}

// noLease is the lease of a poll that fetched nothing: it guards no
// memory, counts as no outstanding lease and is already released, so
// idle polls share it instead of allocating one each.
var noLease Lease

// NoLease returns that shared, already released lease.
func NoLease() *Lease { return &noLease }

// fetchLeasedLocked appends up to max records starting at offset to
// dst. In check mode, record values are copied into one private buffer,
// returned for the caller's lease to own and poison. Caller holds p.mu.
func (p *partition) fetchLeasedLocked(offset int64, max int, dst []Record) ([]Record, []byte, error) {
	if offset < 0 || offset > int64(len(p.records)) {
		return dst, nil, fmt.Errorf("%w: offset %d (hw %d)", ErrInvalidOffset, offset, len(p.records))
	}
	end := offset + int64(max)
	if ve := p.visibleEndLocked(); end > ve {
		end = ve
	}
	if end <= offset {
		return dst, nil, nil
	}
	if !leaseCheckMode.Load() {
		return append(dst, p.records[offset:end]...), nil, nil
	}
	total := 0
	for _, r := range p.records[offset:end] {
		total += len(r.Value)
	}
	checkBuf := make([]byte, 0, total)
	for _, r := range p.records[offset:end] {
		n := len(checkBuf)
		checkBuf = append(checkBuf, r.Value...)
		r.Value = checkBuf[n:len(checkBuf):len(checkBuf)]
		dst = append(dst, r)
	}
	return dst, checkBuf, nil
}

// hold makes the lease own a check-mode buffer (nil is ignored).
func (l *Lease) hold(buf []byte) {
	if len(buf) > 0 {
		l.bufs = append(l.bufs, buf)
	}
}

// PollLeased is Poll's scratch-reusing twin: records append into dst
// (typically a pooled slice with retained capacity) and their payload
// bytes are borrowed from the broker under the returned lease instead
// of staying referenced forever. It waits exactly as Poll does. The
// lease must be released after the batch is fully processed; until
// then the values are stable. A poll that fetched nothing returns a
// shared, already-released lease and allocates nothing; a nil lease is
// returned only with an error.
func (c *Consumer) PollLeased(max int, timeout time.Duration, dst []Record) ([]Record, *Lease, error) {
	if max <= 0 {
		max = 1
	}
	deadline := time.Now().Add(timeout)
	for {
		out, lease, err := c.pollLeasedOnce(max, dst)
		if err != nil || len(out) > len(dst) {
			return out, lease, err
		}
		if !c.waitAny(deadline) {
			return dst, &noLease, nil
		}
	}
}

// pollLeasedOnce sweeps the assigned partitions once, appending into
// dst under one lease, made when the first record is fetched (nil
// when none was).
//
//alarmvet:hotpath
func (c *Consumer) pollLeasedOnce(max int, dst []Record) ([]Record, *Lease, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return dst, nil, ErrClosed
	}
	var lease *Lease
	base := len(dst)
	n := len(c.assigned)
	for i := 0; i < n && len(dst)-base < max; i++ {
		p := c.assigned[(c.next+i)%n]
		part := c.topic.partitions[p]
		part.mu.Lock()
		out, buf, err := part.fetchLeasedLocked(c.positions[p], max-(len(dst)-base), dst)
		part.mu.Unlock()
		if err != nil {
			return dst, lease, err
		}
		if got := len(out) - len(dst); got > 0 {
			c.positions[p] += int64(got)
			if lease == nil {
				lease, _ = c.leases.Lend(nil)
			}
			lease.hold(buf)
		}
		dst = out
	}
	if n > 0 {
		c.next = (c.next + 1) % n
	}
	return dst, lease, nil
}

// LeaseStats snapshots the consumer's lease free list; its Active count
// is the leases handed out and not yet released — the leak detector the
// aliasing tests (and operators watching for buffer leaks) read.
func (c *Consumer) LeaseStats() LeaseStats { return c.leases.Stats() }
